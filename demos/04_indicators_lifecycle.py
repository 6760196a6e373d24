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

import numpy as np

from rcforecast import (Panel, SynthConfig, generate, indicator_table, lifecycle_report,
                        load_corpus)
from rcforecast.cluster import Partition

OUT = Path("demo_output/synth")
result = generate(SynthConfig(rng_seed=42, n_communities=800), OUT)
corpus = load_corpus(result.papers_path, result.ranks_path)

# indicators work against any partition; here, the planted truth. The panel
# folds the papers into (community, year) cells once; every forecast year's
# indicator table (one array per column) and the lifecycle table are read off it.
partition = Partition(dict(result.paper_community), model_year=2009,
                      rc_count=result.n_communities, extended_through=2014)
panel = Panel(corpus, partition)

FY = 2010
table = indicator_table(panel, FY)
raw = table.raw
print(f"fy={FY}: {len(table)} communities with papers in the ten-year window\n")

print("community    stage   cvit   rvit  drvit  ntopj  papers")
for i in np.argsort(-raw["papers_in_fy"], kind="stable")[:8]:
    rv = f"{raw['rvit'][i]:.3f}" if not np.isnan(raw["rvit"][i]) else "  -  "
    print(f"{raw['rc_id'][i]:9d}   {raw['stage'][i]:.3f}  {raw['cvit'][i]:.3f}  {rv}  "
          f"{raw['delta_rvit'][i]:+.2f}  {raw['ntopj'][i]:5d}  {raw['papers_in_fy'][i]:6d}")

for name in ("stage", "cvit", "rvit", "ntopj"):
    vals = table.std[name]
    print(f"standardized {name}: mean {vals.mean():+.2e}, stdev {vals.std():.6f}")

print("\nlifecycle table (gap = fy - peak year):")
print("gap  stage   #RC   %RC    %xg(fy+3)  %new-peak(fy+1)")
for row in lifecycle_report(panel, FY, min_papers=2):
    stage = f"{row.stage:.3f}" if row.stage is not None else "  -  "
    xg = f"{row.pct_xg:6.1f}" if row.pct_xg is not None else "     -"
    npk = f"{row.pct_new_peak:6.1f}" if row.pct_new_peak is not None else "     -"
    print(f"{row.gap:>3}  {stage}  {row.n_rc:4d}  {row.pct_rc:5.1f}  {xg}     {npk}")
