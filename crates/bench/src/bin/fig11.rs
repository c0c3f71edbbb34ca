//! Regenerates the paper's fig11 data. See EXPERIMENTS.md.

use ft_bench::experiments::fig11;

fn main() {
    ft_bench::experiment_main("fig11", fig11::run, fig11::print);
}
