//! `mc` — the MANIFOLD compiler front-end as a CLI (the paper's `Mc`).
//!
//! Parses a `.m` source file, runs the structural checks, and prints a
//! summary plus (optionally) the pretty-printed normal form and/or, with
//! `--ir`, the compiled code the VM steps: each state body as numbered
//! instructions with every jump target. With no file argument it processes
//! the built-in fixtures: the paper's `protocolMW.m` and `mainprog.m`.
//!
//! ```text
//! cargo run -p bench --release --bin mc [-- <file.m>] [--print] [--ir]
//! ```

use manifold::lang::{check_program, compile, parse_program, print_program};

fn process(name: &str, source: &str, print: bool, ir: bool) {
    println!("== {name}");
    let program = match parse_program(source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("   parse error: {e}");
            std::process::exit(1);
        }
    };
    match check_program(&program) {
        Ok(summary) => {
            println!("   manners:   {:?}", summary.manners);
            println!("   manifolds: {:?}", summary.manifolds);
            println!(
                "   events:    {:?}",
                summary.events.iter().collect::<Vec<_>>()
            );
            println!(
                "   streams:   {:?}   states: {}",
                summary.stream_types.iter().collect::<Vec<_>>(),
                summary.state_count
            );
            if !program.includes.is_empty() {
                println!("   includes:  {:?}", program.includes);
            }
        }
        Err(e) => {
            eprintln!("   check error: {e}");
            std::process::exit(1);
        }
    }
    if print {
        println!("---- normal form ----");
        println!("{}", print_program(&program));
    }
    if ir {
        match compile(&program) {
            Ok(compiled) => {
                println!("---- compiled IR ----");
                println!("{}", compiled.disassemble());
            }
            Err(e) => {
                eprintln!("   compile error: {e}");
                std::process::exit(1);
            }
        }
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let print = args.iter().any(|a| a == "--print");
    let ir = args.iter().any(|a| a == "--ir");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        process(
            "protocolMW.m (paper §4.2)",
            manifold::lang::PROTOCOL_MW_SOURCE,
            print,
            ir,
        );
        process(
            "mainprog.m (paper §5)",
            manifold::lang::MAINPROG_SOURCE,
            print,
            ir,
        );
    } else {
        for f in files {
            let source =
                std::fs::read_to_string(f).unwrap_or_else(|e| panic!("cannot read {f}: {e}"));
            process(f, &source, print, ir);
        }
    }
}
