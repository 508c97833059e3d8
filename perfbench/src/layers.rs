//! Per-layer metrics of the traced run.
//!
//! Where one layer's work happens inside another layer's call (the codec
//! and CRC-32 inside a frame, the frame inside a stream), the traced run
//! times that layer's public function again on the same blocks: the
//! "shadow" pass below. Frame self time is the frame call minus its codec
//! and CRC-32 calls, each timed on its own.

use crate::trace::Tracer;
use crate::{mb_per_s, Outcome};
use adcomp::codecs::crc32::crc32;
use adcomp::codecs::frame::{
    decode_block_with, encode_block_with, DEFAULT_BLOCK_LEN, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use adcomp::codecs::{codec_for, CodecId, DecodeScratch, Scratch};
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("corpus.gen_MBps", "MB/s"),
    ("crc32.MBps", "MB/s"),
    ("crc32.share.decode_NO", "ratio"),
    ("codec.RAW.compress_MBps", "MB/s"),
    ("codec.RAW.decompress_MBps", "MB/s"),
    ("codec.RAW.blocks", "count"),
    ("codec.LIGHT.compress_MBps", "MB/s"),
    ("codec.LIGHT.decompress_MBps", "MB/s"),
    ("codec.LIGHT.blocks", "count"),
    ("codec.MEDIUM.compress_MBps", "MB/s"),
    ("codec.MEDIUM.decompress_MBps", "MB/s"),
    ("codec.MEDIUM.blocks", "count"),
    ("codec.HEAVY.compress_MBps", "MB/s"),
    ("codec.HEAVY.decompress_MBps", "MB/s"),
    ("codec.HEAVY.blocks", "count"),
    ("codec.HUFF.compress_MBps", "MB/s"),
    ("codec.HUFF.decompress_MBps", "MB/s"),
    ("codec.HUFF.blocks", "count"),
    ("codec.COLUMNAR.compress_MBps", "MB/s"),
    ("codec.COLUMNAR.decompress_MBps", "MB/s"),
    ("codec.COLUMNAR.blocks", "count"),
    ("frame.encode_self_s", "s"),
    ("frame.decode_self_s", "s"),
    ("frame.raw_fallbacks", "count"),
    ("portfolio.probe_us_per_block", "us"),
    ("portfolio.blocks.RAW", "count"),
    ("portfolio.blocks.LIGHT", "count"),
    ("portfolio.blocks.MEDIUM", "count"),
    ("portfolio.blocks.HEAVY", "count"),
    ("portfolio.blocks.HUFF", "count"),
    ("portfolio.blocks.COLUMNAR", "count"),
    ("stream.NO.compress_MBps", "MB/s"),
    ("stream.NO.decompress_MBps", "MB/s"),
    ("stream.LIGHT.compress_MBps", "MB/s"),
    ("stream.LIGHT.decompress_MBps", "MB/s"),
    ("stream.MEDIUM.compress_MBps", "MB/s"),
    ("stream.MEDIUM.decompress_MBps", "MB/s"),
    ("stream.HEAVY.compress_MBps", "MB/s"),
    ("stream.HEAVY.decompress_MBps", "MB/s"),
    ("stream.PORTFOLIO.compress_MBps", "MB/s"),
    ("stream.PORTFOLIO.decompress_MBps", "MB/s"),
    ("stream.NO.decompress_in_memory_MBps", "MB/s"),
    ("stream.source_read_s", "s"),
    ("stream.sink_write_s", "s"),
    ("controller.epochs", "count"),
    ("controller.level_changes", "count"),
    ("controller.blocks.NO", "count"),
    ("controller.blocks.LIGHT", "count"),
    ("controller.blocks.MEDIUM", "count"),
    ("controller.blocks.HEAVY", "count"),
    ("controller.wire_ratio", "ratio"),
    ("pipeline.write_blocked_s", "s"),
    ("link.wire_MBps", "MB/s"),
    ("link.background_MBps", "MB/s"),
    ("link.sleep_s", "s"),
    ("put.attempts", "count"),
    ("put.retries", "count"),
    ("put.object_ms_p50", "ms"),
    ("get.connect_ms", "ms"),
    ("get.accept_ms", "ms"),
    ("get.accept_hit_ms", "ms"),
    ("get.accept_miss_ms", "ms"),
    ("get.payload_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.resident_MiB", "MiB"),
    ("serve.accepted", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("channel.write_s", "s"),
    ("channel.read_wait_s", "s"),
    ("channel.records", "count"),
    ("channel.blocks", "count"),
    ("executor.overhead_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The metric-name form of a codec id.
pub fn codec_name(id: CodecId) -> &'static str {
    match id {
        CodecId::Raw => "RAW",
        other => other.level_name(),
    }
}

/// Sums of one shadow pass, per codec id (indexed by `CodecId as usize`).
#[derive(Debug, Default, Clone)]
pub struct Shadow {
    pub compress_s: [f64; 6],
    pub compress_bytes: [u64; 6],
    pub decompress_s: [f64; 6],
    pub decompress_bytes: [u64; 6],
    pub blocks: [u64; 6],
    pub crc_s: f64,
    pub crc_bytes: u64,
    /// CRC-32 time of the decode side only (one pass over each payload).
    pub crc_decode_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub raw_fallbacks: u64,
}

impl Shadow {
    pub fn merge(&mut self, o: &Shadow) {
        for i in 0..6 {
            self.compress_s[i] += o.compress_s[i];
            self.compress_bytes[i] += o.compress_bytes[i];
            self.decompress_s[i] += o.decompress_s[i];
            self.decompress_bytes[i] += o.decompress_bytes[i];
            self.blocks[i] += o.blocks[i];
        }
        self.crc_s += o.crc_s;
        self.crc_bytes += o.crc_bytes;
        self.crc_decode_s += o.crc_decode_s;
        self.encode_s += o.encode_s;
        self.decode_s += o.decode_s;
        self.raw_fallbacks += o.raw_fallbacks;
    }

    /// Writes the codec, CRC-32 and frame metrics.
    pub fn report(&self, out: &mut Outcome) {
        for id in CodecId::REGISTRY {
            let i = id as usize;
            let n = codec_name(id);
            let c = mb_per_s(self.compress_bytes[i], self.compress_s[i]);
            let d = mb_per_s(self.decompress_bytes[i], self.decompress_s[i]);
            let (c, d) = if self.blocks[i] == 0 {
                (0.0, 0.0)
            } else {
                (c, d)
            };
            out.put(&format!("codec.{n}.compress_MBps"), c, "MB/s");
            out.put(&format!("codec.{n}.decompress_MBps"), d, "MB/s");
            out.put(&format!("codec.{n}.blocks"), self.blocks[i] as f64, "count");
        }
        out.put("crc32.MBps", mb_per_s(self.crc_bytes, self.crc_s), "MB/s");
        let codec_c: f64 = self.compress_s.iter().sum();
        let codec_d: f64 = self.decompress_s.iter().sum();
        let crc_enc = self.crc_s - self.crc_decode_s;
        out.put(
            "frame.encode_self_s",
            (self.encode_s - codec_c - crc_enc).max(0.0),
            "s",
        );
        out.put(
            "frame.decode_self_s",
            (self.decode_s - codec_d - self.crc_decode_s).max(0.0),
            "s",
        );
        out.put("frame.raw_fallbacks", self.raw_fallbacks as f64, "count");
    }
}

/// Times the frame, codec and CRC-32 functions on each block of `data`
/// compressed with the codec `pick` names for it. Every decoded block is
/// compared with its input; a mismatch is returned as an error.
pub fn shadow_pass(
    tr: &mut Tracer,
    data: &[u8],
    mut pick: impl FnMut(&[u8]) -> CodecId,
) -> Result<Shadow, String> {
    let mut s = Shadow::default();
    let mut scratch = Scratch::new();
    let mut dscratch = DecodeScratch::new();
    let (mut frame, mut tmp, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for (op, block) in data.chunks(DEFAULT_BLOCK_LEN).enumerate() {
        let op = op as u64;
        let id = pick(block);
        let codec = codec_for(id);
        frame.clear();
        let (info, secs) = tr.time_s("frame.encode", op, || {
            encode_block_with(&mut scratch, codec, block, &mut frame)
        });
        s.encode_s += secs;
        tmp.clear();
        let (_, secs) = tr.time_s("codec.compress", op, || {
            codec.compress_with(&mut scratch, block, &mut tmp)
        });
        s.compress_s[id as usize] += secs;
        s.compress_bytes[id as usize] += block.len() as u64;
        let payload = &frame[HEADER_LEN..];
        let (_, enc_crc) = tr.time_s("crc32", op, || black_box(crc32(black_box(payload))));
        s.crc_s += enc_crc;
        s.crc_bytes += payload.len() as u64;
        out.clear();
        let (r, secs) = tr.time_s("frame.decode", op, || {
            decode_block_with(&mut dscratch, &frame, &mut out, DEFAULT_MAX_FRAME)
        });
        r.map_err(|e| format!("shadow decode: {e}"))?;
        s.decode_s += secs;
        let (_, dec_crc) = tr.time_s("crc32", op, || black_box(crc32(black_box(payload))));
        s.crc_s += dec_crc;
        s.crc_decode_s += dec_crc;
        s.crc_bytes += payload.len() as u64;
        let wire = info.codec as usize;
        tmp.clear();
        let (r, secs) = tr.time_s("codec.decompress", op, || {
            codec_for(info.codec).decompress_with(&mut dscratch, payload, block.len(), &mut tmp)
        });
        r.map_err(|e| format!("shadow decompress: {e}"))?;
        s.decompress_s[wire] += secs;
        s.decompress_bytes[wire] += block.len() as u64;
        s.blocks[wire] += 1;
        if info.raw_fallback {
            s.raw_fallbacks += 1;
        }
        if out != block || tmp != block {
            return Err(format!(
                "shadow block {op}: decoded bytes differ from the input"
            ));
        }
    }
    Ok(s)
}

/// A file handle whose reads and writes are timed when `timed` is set —
/// how the traced run splits source reads and sink writes out of a
/// stream's time.
pub struct TimedIo<T> {
    pub inner: T,
    pub timed: bool,
    pub spent: Duration,
}

impl<T> TimedIo<T> {
    pub fn new(inner: T, timed: bool) -> Self {
        TimedIo {
            inner,
            timed,
            spent: Duration::ZERO,
        }
    }
}

impl<T: Read> Read for TimedIo<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.timed {
            return self.inner.read(buf);
        }
        let t = Instant::now();
        let r = self.inner.read(buf);
        self.spent += t.elapsed();
        r
    }
}

impl<T: Write> Write for TimedIo<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.timed {
            return self.inner.write(buf);
        }
        let t = Instant::now();
        let r = self.inner.write(buf);
        self.spent += t.elapsed();
        r
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        if self.timed {
            self.spent += t.elapsed();
        }
        r
    }
}

/// Writes the run's spans to `.bench_out/<workload>-seed<n>.tsv` in the
/// working directory.
pub fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let res = std::fs::create_dir_all(dir).and_then(|_| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_tsv(&mut f)?;
        f.flush()
    });
    if let Err(e) = res {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let start = json.find("\"per_layer\"").expect("per_layer key");
        let listed: Vec<&str> = json[start..]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(listed, ours);
        for (name, unit) in crate::END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn shadow_pass_roundtrips_every_codec() {
        let data = adcomp::corpus::generate(adcomp::corpus::Class::Moderate, 300_000, 9);
        let mut tr = Tracer::new(true, Instant::now());
        for id in CodecId::REGISTRY {
            let s = shadow_pass(&mut tr, &data, |_| id).unwrap();
            assert_eq!(s.blocks.iter().sum::<u64>(), 3);
            assert!(s.crc_bytes > 0);
        }
    }
}
