//! Extension experiment: ablation. See EXPERIMENTS.md.

use ft_bench::experiments::ablation;

fn main() {
    ft_bench::experiment_main("ablation", ablation::run, ablation::print);
}
