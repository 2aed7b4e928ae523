//! The command line: the contract's four flags, or `--catalog`.

use crate::catalog::Workload;

/// One benchmark run, as the driver asks for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: Workload,
    /// Generates every input; the program under test never sees it.
    pub seed: u64,
    /// How long the run measures; the work scales linearly with it.
    pub seconds: u32,
    /// `false`: end-to-end metrics. `true`: the traced per-layer run.
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Print `BENCHMARK.json` from the catalogue.
    Catalog,
    Run(RunArgs),
}

pub const USAGE: &str = "usage: crossbow-perf --workload <name> --seed <n> --seconds <1..60> \
                         --trace <0|1>\n       crossbow-perf --catalog";

/// Parses the arguments after the program name. Every flag is required
/// exactly once; anything else is refused.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args == ["--catalog"] {
        return Ok(Command::Catalog);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let dup = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                dup(workload.is_some())?;
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                dup(seed.is_some())?;
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                dup(seconds.is_some())?;
                let s = value
                    .parse::<u32>()
                    .map_err(|_| format!("--seconds {value:?} is not a whole number"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                dup(trace.is_some())?;
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Command::Run(RunArgs {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err("all of --workload, --seed, --seconds and --trace are required".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags_in_any_order() {
        let want = Command::Run(RunArgs {
            workload: Workload::DistPs,
            seed: 7,
            seconds: 16,
            trace: true,
        });
        assert_eq!(
            parse(&args("--workload dist_ps --seed 7 --seconds 16 --trace 1")),
            Ok(want)
        );
        assert_eq!(
            parse(&args("--trace 1 --seconds 16 --seed 7 --workload dist_ps")),
            Ok(want)
        );
        assert_eq!(parse(&args("--catalog")), Ok(Command::Catalog));
    }

    #[test]
    fn refuses_anything_else() {
        for bad in [
            "",
            "--workload dist_ps --seed 7 --seconds 16",
            "--workload nope --seed 7 --seconds 16 --trace 0",
            "--workload dist_ps --seed -1 --seconds 16 --trace 0",
            "--workload dist_ps --seed 7 --seconds 0 --trace 0",
            "--workload dist_ps --seed 7 --seconds 61 --trace 0",
            "--workload dist_ps --seed 7 --seconds 16 --trace 2",
            "--workload dist_ps --seed 7 --seed 8 --seconds 16 --trace 0",
            "--workload dist_ps --seed 7 --seconds 16 --trace 0 --verbose 1",
            "--workload dist_ps --seed 7 --seconds 16 --trace",
            "--catalog --seed 1",
            "run",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
