//! `l2r-serve` — the standalone route service binary.
//!
//! ```sh
//! # serve one or more snapshots (fit them with `reproduce -- fit --snapshot`):
//! l2r-serve serve --listen 127.0.0.1:7878 --workers 4 \
//!     --model D1=target/model.D1.l2r --model D2=target/model.D2.l2r
//!
//! # self-contained end-to-end smoke (CI): start, exercise both protocols,
//! # hot-reload, sweep 512 binary connections, clean shutdown — exits
//! # non-zero on any protocol deviation or any answer unlike the model's:
//! l2r-serve smoke --model D1=target/model.D1.l2r --sweep 512
//! ```

use std::path::PathBuf;
use std::time::Duration;

use l2r_serve::{registry_from_specs, run_smoke_with, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage:
  l2r-serve serve --listen <addr> [--workers N] --model NAME=PATH [--model NAME=PATH ...]
                  [--deadline-ms D] [--idle-timeout-ms I] [--max-connections C] [--drain-ms G]
                  [--auto-rollback-window W] [--auto-rollback-per-mille P]
  l2r-serve smoke --model NAME=PATH [--model NAME=PATH ...] [--sweep N-connections]

Model snapshots are the versioned `.l2r` files written by
`reproduce -- fit --snapshot <path>`; a --model PATH that is a directory is
opened as a crash-safe model store and its newest durable generation is
served.  With --auto-rollback-window W > 0, the W route outcomes after a
hot-swap are watched and the swap is rolled back automatically when the
internal-error rate exceeds P per mille (default 200)."
    );
    std::process::exit(2);
}

fn parse_model_spec(spec: &str) -> (String, PathBuf) {
    match spec.split_once('=') {
        Some((name, path)) if !name.is_empty() && !path.is_empty() => {
            (name.to_string(), PathBuf::from(path))
        }
        _ => {
            eprintln!("bad --model spec `{spec}` (want NAME=PATH)");
            usage();
        }
    }
}

fn parse_or_usage<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a valid value");
            usage();
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage();
    };
    match command.as_str() {
        "serve" => cmd_serve(args),
        "smoke" => cmd_smoke(args),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage();
        }
    }
}

fn cmd_serve(mut args: impl Iterator<Item = String>) {
    let mut listen = "127.0.0.1:7878".to_string();
    let mut cfg = ServerConfig::default();
    let mut specs: Vec<(String, PathBuf)> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = parse_or_usage(args.next(), "--listen"),
            "--workers" => cfg.workers = parse_or_usage(args.next(), "--workers"),
            "--deadline-ms" => {
                cfg.default_deadline =
                    Duration::from_millis(parse_or_usage(args.next(), "--deadline-ms"))
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout =
                    Duration::from_millis(parse_or_usage(args.next(), "--idle-timeout-ms"))
            }
            "--max-connections" => {
                cfg.max_connections = parse_or_usage(args.next(), "--max-connections")
            }
            "--drain-ms" => {
                cfg.drain_deadline =
                    Duration::from_millis(parse_or_usage(args.next(), "--drain-ms"))
            }
            "--auto-rollback-window" => {
                cfg.auto_rollback_window = parse_or_usage(args.next(), "--auto-rollback-window")
            }
            "--auto-rollback-per-mille" => {
                cfg.auto_rollback_per_mille =
                    parse_or_usage(args.next(), "--auto-rollback-per-mille")
            }
            "--model" => {
                let spec: String = parse_or_usage(args.next(), "--model");
                specs.push(parse_model_spec(&spec));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    let registry = match registry_from_specs(&specs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    for (name, path) in &specs {
        println!("loaded {name} from {}", path.display());
    }
    let workers = cfg.workers;
    let server = match Server::bind_with(&listen, cfg, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "l2r-serve listening on {} ({workers} workers) — send `shutdown` to stop",
        server.local_addr()
    );
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    println!("l2r-serve: clean shutdown");
}

fn cmd_smoke(mut args: impl Iterator<Item = String>) {
    let mut specs: Vec<(String, PathBuf)> = Vec::new();
    let mut sweep: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => {
                let spec: String = parse_or_usage(args.next(), "--model");
                specs.push(parse_model_spec(&spec));
            }
            "--sweep" => sweep = Some(parse_or_usage(args.next(), "--sweep")),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    match run_smoke_with(&specs, sweep) {
        Ok(transcript) => {
            print!("{transcript}");
            println!("l2r-serve smoke: OK");
        }
        Err(e) => {
            eprintln!("l2r-serve smoke FAILED: {e}");
            std::process::exit(1);
        }
    }
}
