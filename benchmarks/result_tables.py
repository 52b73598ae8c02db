"""Where the figure benches put the tables they reproduce."""

from pathlib import Path

# Next to the benchmarks, wherever this checkout lives (gitignored).
RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> Path:
    """Write one narrative table to ``results/<name>.txt`` and echo it
    (visible under ``pytest -s``)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[written to {path}]")
    return path
