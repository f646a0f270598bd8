"""Debugging an image-classification app: all four §2 preprocessing bugs.

Plays the role of the "automated grocery store" app from the paper's
evaluation: deploy micro-MobileNet-v2, inject each preprocessing bug in
isolation, and show (a) the accuracy impact (the Figure 4(a) bars) and
(b) how ML-EXray's built-in assertions name the root cause.

Run:  python examples/debug_image_classification.py
"""

from repro import MLEXray, EdgeApp, DebugSession
from repro.pipelines import build_reference_app, make_preprocess
from repro.util.tabulate import format_table
from repro.validate import ResizeFunctionAssertion
from repro.zoo import get_model
from repro.zoo.registry import image_dataset

BUGS = {
    "baseline (correct)": {},
    "resize: bilinear instead of area": {"resize_method": "bilinear"},
    "channel: BGR instead of RGB": {"channel_order": "bgr"},
    "normalization: [0,1] instead of [-1,1]": {"normalization": "[0,1]"},
    "orientation: input rotated 90 deg": {"rotation_k": 1},
}


def main() -> None:
    model = get_model("micro_mobilenet_v2", stage="mobile")
    frames, labels = image_dataset().sample(64, "example-cls")

    reference = build_reference_app(model)
    reference.run(frames, labels, log_raw=True)

    rows = []
    for description, override in BUGS.items():
        app = EdgeApp(model,
                      preprocess=make_preprocess(model.metadata["pipeline"],
                                                 override),
                      monitor=MLEXray("edge", per_layer=True))
        app.run(frames, labels, log_raw=True)
        # The resize check needs the raw sensor frame (hence log_raw=True)
        # and the training pipeline's expected method.
        report = DebugSession(app.log(), reference.log()).run(
            assertions=[ResizeFunctionAssertion()])
        diagnosis = "; ".join(a.diagnosis for a in report.issues) or "-"
        rows.append((description, f"{report.accuracy.edge_metric:.3f}",
                     "yes" if report.accuracy.degraded else "no", diagnosis))

    print(format_table(
        ("edge pipeline", "top-1", "degraded?", "ML-EXray root cause"),
        rows, title="Preprocessing bugs on micro-MobileNet-v2 (Fig. 4a story)"))


if __name__ == "__main__":
    main()
