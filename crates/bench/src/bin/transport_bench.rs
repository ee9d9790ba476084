//! Transport microbenchmark: loopback round-trip latency, bulk bandwidth,
//! codec throughput, and an in-process memory-copy baseline — the measured
//! numbers that calibrate the simulator's [`NetworkModel`] for a
//! modern localhost deployment (vs. the paper's hard-coded 100 Mbps
//! switched Ethernet).
//!
//! ```text
//! cargo run -p bench --release --bin transport_bench [-- --json]
//! ```
//!
//! `--json` prints only the machine-readable block (the committed
//! `BENCH_transport.json` is this output).
//!
//! [`NetworkModel`]: cluster::network::NetworkModel

use std::net::TcpListener;
use std::time::{Duration, Instant};

use bench::json::{fixed, raw};
use bench::obj;
use cluster::network::NetworkModel;
use manifold::unit::Unit;
use transport::{decode_unit, encode_unit_vec, Addr, Conn, Message};

/// Round-trip `payload` through the echo server `iters` times; returns
/// (mean seconds per round trip, framed message bytes on the wire).
fn round_trips(conn: &mut Conn, payload: &Unit, warmup: usize, iters: usize) -> (f64, usize) {
    let bytes = Message::Job {
        seq: 0,
        job: 0,
        payload: payload.clone(),
    }
    .encode()
    .unwrap()
    .len()
        + transport::HEADER_LEN;
    for seq in 0..warmup as u64 {
        conn.send_msg(&Message::Job {
            seq,
            job: 0,
            payload: payload.clone(),
        })
        .unwrap();
        conn.recv_msg().unwrap().expect("echo closed during warmup");
    }
    let t0 = Instant::now();
    for seq in 0..iters as u64 {
        conn.send_msg(&Message::Job {
            seq,
            job: 0,
            payload: payload.clone(),
        })
        .unwrap();
        conn.recv_msg().unwrap().expect("echo closed mid-run");
    }
    (t0.elapsed().as_secs_f64() / iters as f64, bytes)
}

fn main() {
    let json_only = std::env::args().any(|a| a == "--json");

    // Echo server: every Job comes straight back as Done.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = Addr::Tcp(format!(
        "127.0.0.1:{}",
        listener.local_addr().unwrap().port()
    ));
    let server = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        sock.set_nodelay(true).unwrap();
        let mut conn = Conn::Tcp(sock);
        while let Ok(Some(msg)) = conn.recv_msg() {
            match msg {
                Message::Job { seq, job, payload } => {
                    conn.send_msg(&Message::Done { seq, job, payload }).unwrap()
                }
                Message::Shutdown => break,
                _ => {}
            }
        }
    });
    let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();

    // Small payload: latency-dominated round trip.
    let small = Unit::tuple(vec![Unit::int(3), Unit::int(5), Unit::real(1.0e-3)]);
    let (rtt_small, bytes_small) = round_trips(&mut conn, &small, 200, 2000);

    // Bulk payload: a level-ish result field, bandwidth-dominated.
    let n_reals = 1 << 17; // 1 MiB of f64
    let bulk = Unit::reals((0..n_reals).map(|i| i as f64).collect::<Vec<_>>());
    let (rtt_bulk, bytes_bulk) = round_trips(&mut conn, &bulk, 5, 50);

    conn.send_msg(&Message::Shutdown).unwrap();
    server.join().unwrap();

    // Codec throughput (encode + decode of the bulk unit, no socket).
    let codec_iters = 50;
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..codec_iters {
        let enc = encode_unit_vec(&bulk).unwrap();
        sink += enc.len();
        let dec = decode_unit(&enc).unwrap();
        sink += dec.as_reals().map(|r| r.len()).unwrap_or(0);
    }
    let codec_bytes_per_sec =
        (bytes_bulk * codec_iters) as f64 / t0.elapsed().as_secs_f64().max(1e-12);
    assert!(sink > 0);

    // Memory-copy baseline (the simulator's intra-machine transfer rate).
    // Non-constant data + black_box so the copy cannot be optimized away.
    // The destination is allocated and touched before the timer starts:
    // a fresh buffer per copy would time its page faults, not the copy.
    let src: Vec<u8> = (0..64usize << 20).map(|i| i as u8).collect();
    let mut dst = vec![1u8; src.len()];
    let copies = 8;
    let t0 = Instant::now();
    for _ in 0..copies {
        std::hint::black_box(&mut dst).copy_from_slice(std::hint::black_box(&src));
    }
    let mem_bandwidth = (src.len() * copies) as f64 / t0.elapsed().as_secs_f64().max(1e-12);

    let model = NetworkModel::from_loopback_measurement(
        (bytes_small, rtt_small),
        (bytes_bulk, rtt_bulk),
        mem_bandwidth,
    )
    .expect("calibration");

    if !json_only {
        println!("transport microbenchmark (TCP loopback, length-prefixed frames)");
        println!();
        println!(
            "small round trip : {:>10.1} us ({bytes_small} B framed)",
            rtt_small * 1e6
        );
        println!(
            "bulk  round trip : {:>10.1} us ({bytes_bulk} B framed)",
            rtt_bulk * 1e6
        );
        println!(
            "loopback bandwidth (calibrated) : {:>8.1} MB/s",
            model.bandwidth / 1e6
        );
        println!(
            "one-way latency    (calibrated) : {:>8.1} us",
            model.latency * 1e6
        );
        println!(
            "codec throughput   : {:>8.1} MB/s",
            codec_bytes_per_sec / 1e6
        );
        println!("memcpy bandwidth   : {:>8.1} MB/s", mem_bandwidth / 1e6);
        println!();
        println!(
            "paper's model: latency 150.0 us, bandwidth 11.0 MB/s — the modern \
             loopback transport is orders of magnitude faster, so a localhost \
             multi-process run is coordination-bound, not network-bound."
        );
        println!();
    }
    let json = obj! { "small_payload_bytes": raw(bytes_small),
    "small_rtt_us": fixed(rtt_small * 1e6, 3), "bulk_payload_bytes": raw(bytes_bulk),
    "bulk_rtt_us": fixed(rtt_bulk * 1e6, 3),
    "calibrated_latency_us": fixed(model.latency * 1e6, 3),
    "calibrated_bandwidth_mb_s": fixed(model.bandwidth / 1e6, 3),
    "codec_throughput_mb_s": fixed(codec_bytes_per_sec / 1e6, 3),
    "mem_bandwidth_mb_s": fixed(mem_bandwidth / 1e6, 3) };
    print!("{}", json.render());
}
