//! Dumps an FNV-1a hash of the generated micro-op stream for every SPEC
//! proxy — the bit-exactness harness for generator refactors. Build this
//! bin in two trees (e.g. a worktree at the pre-change commit and the
//! working tree) and diff the output: identical lines prove the full
//! (pc, addr, class, taken, extra_latency) stream is unchanged, which is
//! how the PR 7 fast paths (integer-threshold draws, cached phase
//! thresholds, bias masking) were verified against the prior
//! floating-point formulation.
//!
//! `--core` pins the core model instead of the generator: per proxy it
//! hashes a `warm_up` (2 M instructions by default) plus one 1 M-cycle
//! `run_cycles` window — the window's activity counters and every cache's
//! access/miss counts (see `hotgauge_bench::fingerprint::core_hash`).
//!
//! `--thermal` pins the thermal stage instead: one line per pipeline
//! geometry (smoke and fast presets; 14 nm, and 7 nm at IC area 1.5×)
//! hashing an idle warm-up, solo steps and the steps of K = 8 / K = 5 lane
//! groups cloned from one prepared simulation, each lane stepping on its
//! own (see `hotgauge_bench::fingerprint::thermal_hash`).
//!
//! `--run` pins the co-simulation run loop: one line per result of a fixed
//! set of short runs (solo cold, idle and stop-at-first-hotspot runs, a
//! 3-lane batch, a 5-job pooled sweep and a DVFS-throttled run),
//! each hashing every `RunResult` field except the config (see
//! `hotgauge_bench::fingerprint::run_cases` and `run_hash`).
//!
//! ```text
//! stream_hash [--core] [--profiles GLOB] [--instrs N]
//! stream_hash --thermal
//! stream_hash --run
//! ```
//!
//! `--profiles` narrows the run to benchmarks matching a `*`-wildcard
//! pattern (e.g. `server_*`, `*mmer`); `--instrs` overrides the 5 M
//! instructions hashed per benchmark (the warm-up length under `--core`)
//! — drop it to ~100k for a quick inner-loop check, raise it to deepen the
//! differential before a sign-off run. Unknown flags and patterns matching
//! nothing exit 2.
use hotgauge_bench::fingerprint::{
    core_hash, run_cases, run_hash, stream_hash, thermal_hash, SEED, THERMAL_CASES,
};
use hotgauge_workloads::spec2006;

/// The `run_cycles` window `--core` hashes after the warm-up.
const CORE_WINDOW_CYCLES: u64 = 1_000_000;

/// `*`-wildcard match (no other metacharacters): `*` spans any substring.
fn glob_match(pattern: &str, name: &str) -> bool {
    fn inner(p: &[u8], n: &[u8]) -> bool {
        match p.first() {
            None => n.is_empty(),
            Some(b'*') => (0..=n.len()).any(|k| inner(&p[1..], &n[k..])),
            Some(&c) => n.first() == Some(&c) && inner(&p[1..], &n[1..]),
        }
    }
    inner(pattern.as_bytes(), name.as_bytes())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pattern: Option<String> = None;
    let mut instrs: Option<u64> = None;
    let mut core = false;
    let mut thermal = false;
    let mut run = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: stream_hash [--core] [--profiles GLOB] [--instrs N]\n\
                     \x20      stream_hash --thermal\n\
                     \x20      stream_hash --run\n\
                     \x20 --core           hash the core model (warm-up + one 1M-cycle window)\n\
                     \x20 --thermal        hash the thermal stage per pipeline geometry\n\
                     \x20 --run            hash the results of a fixed set of co-simulation runs\n\
                     \x20 --profiles GLOB  only benchmarks matching a *-wildcard pattern\n\
                     \x20 --instrs N       instructions hashed per benchmark (default 5000000),\n\
                     \x20                  or warm-up instructions under --core (default 2000000)"
                );
                return;
            }
            "--core" => core = true,
            "--thermal" => thermal = true,
            "--run" => run = true,
            "--profiles" => {
                i += 1;
                match args.get(i) {
                    Some(p) => pattern = Some(p.clone()),
                    None => {
                        eprintln!("error: --profiles needs a value");
                        std::process::exit(2);
                    }
                }
            }
            "--instrs" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("error: --instrs needs a value");
                    std::process::exit(2);
                };
                match v.parse::<u64>() {
                    Ok(n) if n >= 1 => instrs = Some(n),
                    _ => {
                        eprintln!(
                            "error: invalid instruction count {v} (expected an integer >= 1)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("error: unknown argument {other} (see stream_hash --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if run {
        if thermal || core || pattern.is_some() || instrs.is_some() {
            eprintln!("error: --run takes no other option");
            std::process::exit(2);
        }
        for (label, r) in run_cases() {
            println!("{label} {:016x}", run_hash(&r));
        }
        return;
    }

    if thermal {
        if core || pattern.is_some() || instrs.is_some() {
            eprintln!("error: --thermal takes no other option");
            std::process::exit(2);
        }
        for (preset, node, factor) in THERMAL_CASES {
            let h = thermal_hash(preset, node, factor).expect("known preset");
            println!("{preset} {node}@{factor} {h:016x}");
        }
        return;
    }

    let selected: Vec<&str> = spec2006::ALL_BENCHMARKS
        .iter()
        .copied()
        .filter(|b| pattern.as_deref().is_none_or(|p| glob_match(p, b)))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "error: --profiles {} matches no benchmark (known: {})",
            pattern.as_deref().unwrap_or("*"),
            spec2006::ALL_BENCHMARKS.join(", ")
        );
        std::process::exit(2);
    }

    for bench in selected {
        let h = if core {
            core_hash(bench, instrs.unwrap_or(2_000_000), CORE_WINDOW_CYCLES)
        } else {
            stream_hash(bench, instrs.unwrap_or(5_000_000))
        }
        .expect("known benchmark");
        println!("{bench} {SEED} {h:016x}");
    }
}
