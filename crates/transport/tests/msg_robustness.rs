//! Corruption robustness for the coordinator↔child session protocol: a
//! hostile (or just unlucky) byte stream must surface as a typed decode
//! error — never a panic, and never a *silently wrong* message. The v4
//! membership frames (`HelloAck` with its pool assignment, `Leave`) are
//! attacked alongside the originals: an elastic fleet that adds and
//! retires workers mid-run leans on these frames for correctness, so a
//! corrupted `Leave` must never retire the wrong instance silently.
//!
//! The seed corpus lives in `fuzz/corpus/transport_msg/` (one framed
//! message per file, covering every `Message` variant). `trace.bin` is
//! the exception: a version-4 `Trace` frame (tag 7), kept to show that a
//! frame of the removed message is refused. Regenerate the rest after an
//! intentional protocol change with:
//!
//! ```text
//! MC_BLESS=1 cargo test -p transport --test msg_robustness
//! ```

use std::path::PathBuf;

use manifold::Unit;
use transport::msg::{Message, PROTOCOL_VERSION};
use transport::{frame_vec, FrameDecoder};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fuzz/corpus/transport_msg")
        .canonicalize()
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/transport_msg")
        })
}

/// One exemplar per variant, fields chosen to exercise every scalar
/// width, an empty payload, a nested payload, and non-trivial strings.
fn exemplars() -> Vec<(&'static str, Message)> {
    vec![
        (
            "hello",
            Message::Hello {
                version: PROTOCOL_VERSION,
                instance: 3,
                host: "node7.cluster-α".into(),
                task_uid: (4u64 + 1) << 18 | 2,
            },
        ),
        (
            "hello-ack",
            Message::HelloAck {
                instance: 3,
                pool: 2,
            },
        ),
        (
            "job",
            Message::Job {
                seq: 17,
                job: 4,
                payload: Unit::tuple(vec![Unit::int(5), Unit::reals(vec![1.0, -0.5])]),
            },
        ),
        (
            "done",
            Message::Done {
                seq: 17,
                job: 4,
                payload: Unit::reals(vec![0.25, f64::MIN_POSITIVE, -1234.5678]),
            },
        ),
        (
            "done-empty",
            Message::Done {
                seq: 18,
                job: 0,
                payload: Unit::reals(vec![]),
            },
        ),
        (
            "fail",
            Message::Fail {
                seq: 19,
                job: 4,
                error: "subsolve diverged: chaos".into(),
            },
        ),
        ("heartbeat", Message::Heartbeat),
        ("shutdown", Message::Shutdown),
        (
            "leave",
            Message::Leave {
                instance: 3,
                reason: "retired".into(),
            },
        ),
    ]
}

/// Load (or, under `MC_BLESS=1`, regenerate) the corpus and check every
/// file still decodes to its exemplar.
fn corpus() -> Vec<(String, Vec<u8>, Message)> {
    let dir = corpus_dir();
    let bless = std::env::var_os("MC_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut out = Vec::new();
    for (name, msg) in exemplars() {
        let path = dir.join(format!("{name}.bin"));
        let frame = frame_vec(&msg.encode().unwrap());
        if bless {
            std::fs::write(&path, &frame).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing corpus seed {} ({e}); run with MC_BLESS=1",
                path.display()
            )
        });
        assert_eq!(
            bytes, frame,
            "corpus seed {name} drifted from the current encoding; regenerate with \
             MC_BLESS=1 if the protocol change was intentional"
        );
        out.push((name.to_string(), bytes, msg));
    }
    out
}

fn deframe_one(bytes: &[u8]) -> Result<Option<Vec<u8>>, String> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    match dec.next_frame() {
        Err(e) => Err(e.to_string()),
        Ok(p) => Ok(p),
    }
}

/// Layer 1: every single-bit flip of every framed seed either fails (at
/// the deframe CRC or the decode) or yields the original message — a
/// corrupted frame must never decode to something *else*. For membership
/// frames "something else" means joining the wrong pool or retiring the
/// wrong worker.
#[test]
fn single_bit_flips_never_smuggle_a_different_message() {
    let mut flips = 0u64;
    let mut caught = 0u64;
    for (name, frame, msg) in corpus() {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut evil = frame.clone();
                evil[byte] ^= 1 << bit;
                flips += 1;
                let survived = std::panic::catch_unwind(|| {
                    match deframe_one(&evil) {
                        Err(_) => None,   // CRC / header caught it
                        Ok(None) => None, // length field now asks for more
                        Ok(Some(payload)) => Message::decode(&payload).ok(),
                    }
                })
                .unwrap_or_else(|_| {
                    panic!("{name}: byte {byte} bit {bit} flip PANICKED the decoder")
                });
                match survived {
                    None => caught += 1,
                    Some(decoded) => assert_eq!(
                        decoded, msg,
                        "{name}: byte {byte} bit {bit} flip decoded to a DIFFERENT message"
                    ),
                }
            }
        }
    }
    assert!(
        caught * 100 >= flips * 99,
        "only {caught}/{flips} flips were caught — frame integrity checking looks disabled"
    );
}

/// Layer 2: `Message::decode` on corrupted *bare payloads* (CRC layer
/// presumed defeated) returns `Ok`/`Err`, never panics — under single-bit
/// flips, truncations, and garbage extensions.
#[test]
fn payload_corruption_never_panics_the_decoder() {
    for (name, frame, _) in corpus() {
        let payload = deframe_one(&frame).unwrap().unwrap();
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut evil = payload.clone();
                evil[byte] ^= 1 << bit;
                std::panic::catch_unwind(|| {
                    let _ = Message::decode(&evil);
                })
                .unwrap_or_else(|_| {
                    panic!("{name}: payload byte {byte} bit {bit} flip panicked decode")
                });
            }
        }
        for cut in 0..payload.len() {
            std::panic::catch_unwind(|| {
                let _ = Message::decode(&payload[..cut]);
            })
            .unwrap_or_else(|_| panic!("{name}: truncation to {cut} bytes panicked decode"));
        }
        let mut extended = payload.clone();
        extended.extend_from_slice(&[0xFF; 16]);
        std::panic::catch_unwind(|| {
            let _ = Message::decode(&extended);
        })
        .unwrap_or_else(|_| panic!("{name}: garbage extension panicked decode"));
    }
}

/// Layer 2, shotgun: deterministic xorshift-driven multi-bit mangling of
/// frames — thousands of corruptions, zero panics required.
#[test]
fn random_mangling_never_panics() {
    let mut state: u64 = 0xB1AC_5EA1_ED5E_ED00;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let seeds = corpus();
    for round in 0..4_000u32 {
        let (name, frame, _) = &seeds[(rng() as usize) % seeds.len()];
        let mut evil = frame.clone();
        let flips = 1 + (rng() as usize) % 8;
        for _ in 0..flips {
            let pos = (rng() as usize) % evil.len();
            evil[pos] ^= (rng() % 255 + 1) as u8;
        }
        if rng() % 4 == 0 {
            let keep = (rng() as usize) % evil.len();
            evil.truncate(keep);
        }
        std::panic::catch_unwind(|| match deframe_one(&evil) {
            Err(_) | Ok(None) => {}
            Ok(Some(payload)) => {
                let _ = Message::decode(&payload);
            }
        })
        .unwrap_or_else(|_| panic!("{name}: mangling round {round} panicked"));
    }
}

/// Cross-variant confusion: re-tagging one variant's fields as another
/// variant (same arity) must either fail the arity/type checks or decode
/// to a well-formed message of the *claimed* tag — never corrupt state by
/// half-parsing. This is the membership-specific attack: `HelloAck` and
/// `Leave` share arity 3, so a flipped tag bit must not silently turn a
/// pool assignment into a retirement order.
#[test]
fn retagged_membership_frames_decode_cleanly_or_not_at_all() {
    let ack = Message::HelloAck {
        instance: 7,
        pool: 1,
    };
    let items = match ack.to_unit().as_tuple() {
        Some(items) => items.to_vec(),
        None => unreachable!("messages encode as tuples"),
    };
    // Swap the tag for every known and several unknown tags.
    for tag in 0..16i64 {
        let mut forged = items.clone();
        forged[0] = Unit::int(tag);
        let result = std::panic::catch_unwind(|| Message::from_unit(&Unit::tuple(forged)))
            .expect("retagging must not panic");
        if let Ok(msg) = result {
            // Arity-3 tags: HelloAck and Leave. Leave's field 2 is text,
            // so an all-int HelloAck body must NOT parse as Leave.
            match msg {
                Message::HelloAck { instance, pool } => {
                    assert_eq!((instance, pool), (7, 1));
                }
                other => panic!("HelloAck body decoded as {other:?}"),
            }
        }
    }
}

/// Tag 7 was `Trace` up to protocol version 4. A version-4 `Trace` frame
/// still passes the frame checks, and its payload is refused as an
/// unknown tag: no panic, and no other message.
#[test]
fn a_removed_trace_frame_is_refused() {
    let frame = std::fs::read(corpus_dir().join("trace.bin")).expect("corpus seed trace.bin");
    let payload = deframe_one(&frame)
        .expect("a well-formed frame")
        .expect("a whole frame");
    let decoded = std::panic::catch_unwind(|| Message::decode(&payload))
        .expect("decoding a removed message must not panic");
    assert_eq!(decoded, Err("unknown message tag 7".to_string()));
}
