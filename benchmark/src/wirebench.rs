//! `uts_ckpt::wire` over a real OS pipe pair, the transport `uts-shard`
//! puts it on: a `FrameWriter`/`FrameReader` ping-pong against an echo
//! thread, with the same `BufWriter`/`BufReader` wrapping the coordinator
//! uses. Large frames show the bandwidth `shard-wide` lives on, small
//! frames the per-exchange cost `shard-deep` pays thousands of times.

use std::io::{BufReader, BufWriter};
use std::time::Instant;

use uts_ckpt::wire::{FrameReader, FrameWriter};

const ECHO: u8 = 1;
const STOP: u8 = 2;

/// Seconds for `rounds` round trips of a `payload_len`-byte frame.
fn ping_pong(payload_len: usize, rounds: usize) -> f64 {
    let (there_r, there_w) = std::io::pipe().expect("pipe");
    let (back_r, back_w) = std::io::pipe().expect("pipe");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut reader = FrameReader::new(BufReader::new(there_r));
            let mut writer = FrameWriter::new(BufWriter::new(back_w));
            let mut buf = Vec::new();
            while reader.recv(&mut buf).expect("echo side reads a frame") == ECHO {
                writer.send(ECHO, &buf).expect("echo side writes a frame");
            }
        });
        let mut writer = FrameWriter::new(BufWriter::new(there_w));
        let mut reader = FrameReader::new(BufReader::new(back_r));
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31) as u8).collect();
        let mut buf = Vec::new();
        let t0 = Instant::now();
        for _ in 0..rounds {
            writer.send(ECHO, &payload).expect("send");
            reader.recv(&mut buf).expect("recv");
        }
        let seconds = t0.elapsed().as_secs_f64();
        assert_eq!(buf, payload, "echo returns the payload");
        writer.send(STOP, &[]).expect("stop the echo thread");
        seconds
    })
}

pub struct WireRates {
    /// Payload MB/s (both directions counted) with 4 MiB frames.
    pub large_mb_per_s: f64,
    /// The same with 256-byte frames.
    pub small_mb_per_s: f64,
    /// Round trip of a 16-byte frame, µs.
    pub frame_rtt_us: f64,
}

pub fn measure() -> WireRates {
    let mb = |len: usize, rounds: usize, s: f64| (2 * len * rounds) as f64 / 1e6 / s;
    let large = ping_pong(4 << 20, 6);
    let small = ping_pong(256, 3000);
    let tiny = ping_pong(16, 3000);
    WireRates {
        large_mb_per_s: mb(4 << 20, 6, large),
        small_mb_per_s: mb(256, 3000, small),
        frame_rtt_us: tiny / 3000.0 * 1e6,
    }
}
