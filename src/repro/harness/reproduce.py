"""Whole-evaluation reproduction report generator.

Runs every registered figure and writes one markdown report with the
regenerated tables next to the paper's claims — the file a reviewer
would read to judge the reproduction.  Used by ``python -m repro
report`` and importable for notebooks.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import FIGURES, FigureData, run_figure
from repro.harness.report import format_table


def _figure_markdown(figure: FigureData, chart_path: str | None) -> str:
    lines = [f"## {figure.name}: {figure.title}", ""]
    if chart_path is not None:
        lines.append(f"![{figure.name}]({chart_path})")
        lines.append("")
    lines.append("```")
    lines.append(format_table(figure.columns, figure.rows))
    lines.append("```")
    if figure.notes:
        lines.append(f"\n*Note:* {figure.notes}")
    if figure.paper:
        lines.append(f"\n*Paper:* {figure.paper}")
    lines.append("")
    return "\n".join(lines)


def generate_report(
    scale: float = 0.25,
    figures: Iterable[str] | None = None,
    runner: ExperimentRunner | None = None,
    charts_dir: str | os.PathLike | None = None,
    workers: int = 1,
) -> str:
    """Regenerate figures and return the markdown report text.

    When ``charts_dir`` is given, an SVG bar chart is written there for
    every figure with numeric cells, and the report embeds it.  With
    ``workers > 1`` the runs the figures share are pre-warmed through
    the resilient sweep orchestrator before the (sequential) figure
    functions consume them from cache.
    """
    runner = runner or ExperimentRunner(scale=scale)
    names = sorted(figures) if figures is not None else sorted(FIGURES)
    if workers > 1:
        _prewarm(runner, workers)
    started = time.time()
    if charts_dir is not None:
        os.makedirs(charts_dir, exist_ok=True)
    sections = []
    for name in names:
        figure = run_figure(name, runner)
        chart_path = None
        if charts_dir is not None:
            chart_path = _maybe_write_chart(figure, charts_dir)
        sections.append(_figure_markdown(figure, chart_path))
    elapsed = time.time() - started
    dropped = runner.dropped_event_total()
    header = "\n".join(
        [
            "# GRIT reproduction report",
            "",
            "Regenerated evaluation tables for *GRIT: Enhancing Multi-GPU "
            "Performance with Fine-Grained Dynamic Page Placement* "
            "(HPCA 2024).",
            "",
            f"- trace scale: {runner.scale}",
            f"- figures: {len(names)}",
            f"- generation time: {elapsed:.0f}s",
            *(
                [
                    f"- **warning:** event logs saturated; {dropped} "
                    f"events dropped (observability data is truncated)"
                ]
                if dropped
                else []
            ),
            "",
            "See EXPERIMENTS.md for the paper-vs-measured comparison and "
            "documented deviations.",
            "",
        ]
    )
    return header + "\n" + "\n".join(sections)


def _prewarm(runner: ExperimentRunner, workers: int) -> None:
    """Populate the runner's cache via the sweep orchestrator."""
    from repro.harness.figures import warmup_keys
    from repro.harness.orchestrator import run_sweep

    summary = run_sweep(
        warmup_keys(runner),
        base_config=runner.base_config,
        workers=workers,
        cache_dir=getattr(runner, "cache_dir", None),
        artifacts_dir=runner.artifacts_dir,
    )
    # Failed keys (if any) fall back to inline simulation when a
    # figure asks for them; pre-warming is best-effort.
    runner.remember(summary.results)


def _maybe_write_chart(
    figure: FigureData, charts_dir: str | os.PathLike
) -> str | None:
    """Write the figure's SVG; returns its path, or None if non-numeric."""
    from repro.harness.charts import save_svg

    path = os.path.join(str(charts_dir), f"{figure.name}.svg")
    try:
        save_svg(figure, path)
    except ValueError:
        return None
    return path


def write_report(
    path: str | os.PathLike,
    scale: float = 0.25,
    figures: Iterable[str] | None = None,
    charts_dir: str | os.PathLike | None = None,
    workers: int = 1,
) -> str:
    """Generate the report and write it to ``path``; returns the text."""
    text = generate_report(
        scale=scale,
        figures=figures,
        charts_dir=charts_dir,
        workers=workers,
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
