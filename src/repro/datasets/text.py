"""Synthetic sentiment-classification dataset (IMDB stand-in).

A vocabulary of positive / negative / neutral tokens, each with a *cased*
variant that is a **distinct vocabulary entry** (as in real word-level
models). Reviews mix cases randomly, and models are trained on the mixed-case
stream — so lowercasing the input at deployment time moves tokens to
different embedding rows (drastically different embedding output) while
leaving sentiment polarity intact (accuracy unchanged). This reproduces the
paper's appendix-A NNLM observation.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import derive_rng

PAD, UNK = "<pad>", "<unk>"


class SyntheticSentiment:
    """Token-id sentiment dataset with cased/uncased vocabulary variants.

    Each of the 40 base lexemes per sentiment class (pos/neg/neutral)
    contributes two vocabulary entries (lower + Capitalized); reviews are
    padded/truncated to :attr:`seq_len` tokens.
    """

    seq_len = 16

    def __init__(self, seed: int = 2022):
        words_per_polarity = 40
        self.seed = seed
        self.pos_words = [f"good{i}" for i in range(words_per_polarity)]
        self.neg_words = [f"bad{i}" for i in range(words_per_polarity)]
        self.neu_words = [f"word{i}" for i in range(2 * words_per_polarity)]
        vocab = [PAD, UNK]
        for w in self.pos_words + self.neg_words + self.neu_words:
            vocab.append(w)
            vocab.append(w.capitalize())
        self.vocab = vocab
        self.token_to_id = {tok: i for i, tok in enumerate(vocab)}
        self.vocab_size = len(vocab)

    # --------------------------------------------------------------- encode
    def encode(self, tokens: list[str], lowercase: bool = False) -> np.ndarray:
        """Map tokens to ids, optionally lowercasing first (the deployment bug)."""
        ids = []
        for tok in tokens[: self.seq_len]:
            if lowercase:
                tok = tok.lower()
            ids.append(self.token_to_id.get(tok, self.token_to_id[UNK]))
        while len(ids) < self.seq_len:
            ids.append(self.token_to_id[PAD])
        return np.asarray(ids, dtype=np.int64)

    # --------------------------------------------------------------- sample
    def sample_tokens(
        self, n: int, split: str = "train"
    ) -> tuple[list[list[str]], np.ndarray]:
        """Generate raw mixed-case token sequences with binary labels."""
        rng = derive_rng(self.seed, "text-split", split)
        labels = rng.integers(0, 2, size=n).astype(np.int64)
        reviews: list[list[str]] = []
        for i in range(n):
            length = int(rng.integers(8, self.seq_len + 1))
            sentiment_words = self.pos_words if labels[i] == 1 else self.neg_words
            tokens = []
            for _ in range(length):
                if rng.random() < 0.45:
                    word = sentiment_words[int(rng.integers(len(sentiment_words)))]
                elif rng.random() < 0.12:  # occasional contrary word (noise)
                    other = self.neg_words if labels[i] == 1 else self.pos_words
                    word = other[int(rng.integers(len(other)))]
                else:
                    word = self.neu_words[int(rng.integers(len(self.neu_words)))]
                if rng.random() < 0.3:
                    word = word.capitalize()
                tokens.append(word)
            reviews.append(tokens)
        return reviews, labels

    def sample(self, n: int,
               split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """Generate encoded id sequences: (int64 (n, seq_len), int64 (n,))."""
        reviews, labels = self.sample_tokens(n, split)
        ids = np.stack([self.encode(r) for r in reviews])
        return ids, labels
