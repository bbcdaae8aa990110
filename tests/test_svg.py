"""Box plots: whiskers at 1.5 IQR with the points beyond them drawn, and a
flat plot when every value is equal."""

import numpy as np

from balson import svg


def test_box_plot_draws_an_outlier(tmp_path):
    path = tmp_path / "box.svg"
    svg.box_plot(path, [("a", [1.0, 1.1, 1.2, 1.3, 9.0]), ("b", [2.0, 2.1, 2.2])], "t")
    text = path.read_text()
    assert text.count("<circle") == 1
    assert text.endswith("</svg>\n")


def test_box_plot_of_equal_values(tmp_path):
    path = tmp_path / "box.svg"
    svg.box_plot(path, [("a", np.full(4, 0.5)), ("b", [0.5, 0.5])], "t")
    text = path.read_text()
    # The y range falls back to one unit, so every box is a finite, flat line.
    assert "<circle" not in text and "nan" not in text and "inf" not in text
    assert text.count('fill="none"') == text.count('height="0.00"') == 2
