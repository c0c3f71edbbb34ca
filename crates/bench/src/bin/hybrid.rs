//! Extension experiment: hybrid. See EXPERIMENTS.md.

use ft_bench::experiments::hybrid;

fn main() {
    ft_bench::experiment_main("hybrid", hybrid::run, hybrid::print);
}
