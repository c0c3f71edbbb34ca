//! Regenerates the paper's table3 data. See EXPERIMENTS.md.

use ft_bench::experiments::table3;

fn main() {
    ft_bench::experiment_main("table3", table3::run, table3::print);
}
