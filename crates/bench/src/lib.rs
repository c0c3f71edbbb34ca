//! Experiment harness regenerating every table and figure of the
//! flat-tree paper.
//!
//! Each experiment lives in [`experiments`] and is exposed three ways:
//!
//! 1. a binary (`cargo run -p ft-bench --release --bin fig8`) printing
//!    the same rows/series the paper reports (plus JSON with `--json`);
//! 2. a Criterion bench (`cargo bench -p ft-bench`) timing a scaled-down
//!    run of the same code path;
//! 3. a library function, reused by the integration tests.
//!
//! All experiments run at a laptop **mini scale** by default (exact
//! topology ratios, reduced counts) and accept `--full` for the paper's
//! Table 2 sizes. The mapping from mini to full parameters and the
//! measured-vs-paper numbers are recorded in `EXPERIMENTS.md`.

pub mod cli;
pub mod dispatch;
pub mod experiments;
pub mod recorder;
pub mod report;
pub mod scale;
pub mod sweep;

pub use cli::Cli;
pub use flowsim::faults;
pub use scale::Scale;

/// The whole `main` of an experiment binary: parses the shared [`Cli`]
/// for `bin`, starts the `--metrics` recorder, runs the experiment at
/// the parsed scale, prints it (plus pretty JSON with `--json`), and
/// finishes the recorder.
pub fn experiment_main<O, T>(bin: &str, run: fn(Scale) -> O, print: fn(&T))
where
    O: serde::Serialize + std::borrow::Borrow<T>,
    T: ?Sized,
{
    let cli = Cli::parse(bin);
    let rec = recorder::start(bin, &cli);
    let out = run(cli.scale);
    print(out.borrow());
    if cli.scale.json {
        // ftlint::allow(FTL-R001): derived Serialize on plain experiment rows cannot fail
        let json = serde_json::to_string_pretty(&out).expect("serializable");
        // ftlint::allow(FTL-R002): the --json dump is part of the experiment bins' stdout contract
        println!("{json}");
    }
    recorder::finish(rec);
}
