//! Regenerates the paper's fig10 data. See EXPERIMENTS.md.

use ft_bench::experiments::fig10;

fn main() {
    ft_bench::experiment_main("fig10", fig10::run, fig10::print);
}
