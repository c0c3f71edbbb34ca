//! Regenerates the paper's fig8 data. See EXPERIMENTS.md.

use ft_bench::experiments::fig8;

fn main() {
    ft_bench::experiment_main("fig8", fig8::run, fig8::print);
}
