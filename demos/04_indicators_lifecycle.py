"""Compute the ten per-community indicators and the lifecycle tables.

For each (community, forecast year): stage (reciprocal time since the peak
publication-share year), cvit (mean reciprocal paper age over a ten-year
window), rvit (mean reciprocal reference age of forecast-year papers),
delta_rvit (Z-score of rvit against its own history), top-journal counts
(ntopj, ctopj, eigen) and sizes (nart, nrev, nref). Counts are log-transformed,
rvit takes a fourth root, and every indicator is standardized against that
forecast year's population.

The lifecycle table shows why stage matters: communities at a fresh share peak
are far more likely to grow exceptionally over the next three years, and far
more likely to set a new peak next year, than communities long past their peak.
"""

from pathlib import Path

from rcforecast import Panel, SynthConfig, generate, load_corpus, lifecycle_report
from rcforecast.cluster import Partition
from rcforecast.indicators import transform_and_standardize

OUT = Path("demo_output/synth")
result = generate(SynthConfig(rng_seed=42, n_communities=800), OUT)
corpus = load_corpus(result.papers_path, result.ranks_path)

# indicators work against any partition; here, the planted truth. The panel
# folds the papers into (community, year) cells once; every forecast year's
# indicators and the lifecycle table are read off it.
partition = Partition(dict(result.paper_community), model_year=2009,
                      rc_count=result.n_communities, extended_through=2014)
panel = Panel(corpus, partition)

FY = 2010
raw = panel.rows(FY)
std = transform_and_standardize(raw)
print(f"fy={FY}: {len(raw)} communities with papers in the ten-year window\n")

print("community    stage   cvit   rvit  drvit  ntopj  papers")
for r in sorted(raw, key=lambda r: -r.papers_in_fy)[:8]:
    rv = f"{r.rvit:.3f}" if r.rvit is not None else "  -  "
    print(f"{r.rc_id:9d}   {r.stage:.3f}  {r.cvit:.3f}  {rv}  "
          f"{r.delta_rvit:+.2f}  {r.ntopj:5d}  {r.papers_in_fy:6d}")

import numpy as np
for name in ("stage", "cvit", "rvit", "ntopj"):
    vals = np.array([s.value(name) for s in std])
    print(f"standardized {name}: mean {vals.mean():+.2e}, stdev {vals.std():.6f}")

print("\nlifecycle table (gap = fy - peak year):")
print("gap  stage   #RC   %RC    %xg(fy+3)  %new-peak(fy+1)")
for row in lifecycle_report(panel, FY, min_papers=2):
    stage = f"{row.stage:.3f}" if row.stage is not None else "  -  "
    xg = f"{row.pct_xg:6.1f}" if row.pct_xg is not None else "     -"
    npk = f"{row.pct_new_peak:6.1f}" if row.pct_new_peak is not None else "     -"
    print(f"{row.gap:>3}  {stage}  {row.n_rc:4d}  {row.pct_rc:5.1f}  {xg}     {npk}")
