//! Intro Case 1: **communication heterogeneity** — the paper motivates
//! partial reduce with geo-distributed clusters where inter-datacenter
//! links are ~10× slower than intra-datacenter ones, but its evaluation
//! only exercises compute heterogeneity. This binary closes that gap as an
//! extension experiment: 8 compute-identical workers, two of which sit
//! behind a slow link.
//!
//! All-Reduce's global ring always crosses the slow link; a partial-reduce
//! group pays it only when a remote worker is a member, so most groups run
//! at full speed.
//!
//! Run: `cargo run --release -p preduce-bench --bin case1_comm_hetero`

#![forbid(unsafe_code)]

use preduce_bench::configs::table1_config;
use preduce_bench::output::{print_run_row, TableWriter};
use preduce_models::zoo;
use preduce_trainer::{run_experiment, Strategy};

fn main() {
    println!("Case 1 (intro): communication heterogeneity");
    println!("8 workers, identical GPUs; workers 6-7 behind a link with the given slowdown.\n");

    let t = TableWriter::new(
        &["link x", "All-Reduce", "AD-PSGD", "P-Reduce CON (P=3)"],
        &[7, 12, 12, 18],
    );
    for slow in [1.0f64, 4.0, 10.0] {
        // VGG-19 analog: the most communication-bound Table 1 model, where
        // link heterogeneity bites hardest.
        let mut config = table1_config(zoo::vgg19(), 1);
        config.link_slowdown = Some(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, slow, slow]);
        let ar = run_experiment(Strategy::AllReduce, &config);
        let ad = run_experiment(Strategy::AdPsgd, &config);
        let pr = run_experiment(
            Strategy::PReduce {
                p: 3,
                dynamic: false,
            },
            &config,
        );
        t.row(&[
            &format!("{slow:.0}x"),
            &format!("{:.1}s", ar.run_time),
            &format!("{:.1}s", ad.run_time),
            &format!("{:.1}s", pr.run_time),
        ]);
    }

    println!("\ndetails at 10x:");
    let mut config = table1_config(zoo::vgg19(), 1);
    config.link_slowdown = Some(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 10.0]);
    for s in [
        Strategy::AllReduce,
        Strategy::AdPsgd,
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        Strategy::PReduce {
            p: 3,
            dynamic: true,
        },
    ] {
        let r = run_experiment(s, &config);
        print_run_row(&r);
    }
    println!("\n(The global ring always pays the slow link; most partial-reduce");
    println!(" groups avoid it entirely.)");
}
