#!/bin/bash
# Regenerates every paper table/figure plus the design-choice ablations.
# RDP_SCALE shrinks the synthetic suite uniformly; the *ratios* the paper
# reports are scale-stable (see EXPERIMENTS.md).
#
# Performance records live in bench_e2e/ (`python3 bench_e2e/run.py`):
# end-to-end timings on fixed designs with a per-layer breakdown.
export RDP_SCALE=${RDP_SCALE:-0.5}
cd "$(dirname "$0")"

echo "=== rdplace bench run (RDP_SCALE=$RDP_SCALE) ==="
for b in table1_main table2_ablation fig1_congestion_decomposition \
         fig3_net_moving_geometry fig4_pg_rail_selection \
         ablation_inflation ablation_dc_model ablation_congestion_source \
         ablation_router_model; do
  echo; echo "##### bench/$b #####"
  ./build/bench/$b 2>/dev/null
done
echo; echo "##### bench/micro_kernels #####"
./build/bench/micro_kernels --benchmark_min_time=0.05 2>/dev/null
# Thread-scaling sweep for the parallel execution layer (WA gradient,
# density scatter, one-RRR-round route at 1/2/4/8 workers). Results are
# bitwise identical across thread counts; only the wall clock moves.
echo; echo "##### bench/micro_kernels (thread scaling) #####"
./build/bench/micro_kernels \
  --benchmark_filter='Threads/' --benchmark_min_time=0.2 2>/dev/null
