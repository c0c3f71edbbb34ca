//! Regenerates the paper's table1 data. See EXPERIMENTS.md.

use ft_bench::experiments::table1;

fn main() {
    ft_bench::experiment_main("table1", table1::run, table1::print);
}
