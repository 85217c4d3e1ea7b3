//! Bidirectional video streaming (the ffmpeg emulation of Section IV-A).
//!
//! The paper's testbed "use\[s\] the ffmpeg codec suite to create a
//! bidirectional video stream between multiple locations". We model the
//! stream at frame granularity: a GOP structure of large I-frames and
//! smaller P-frames paced at the configured frame rate, each frame
//! traversing the network path and charged encode/decode time. The paper's
//! timing requirement — 60 FPS ⇒ 16.6 ms frame interval, motion-to-photon
//! below 20 ms — becomes a per-frame deadline-miss statistic.

use serde::{Deserialize, Serialize};
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::rng::SimRng;
use sixg_netsim::stats::Welford;
use sixg_netsim::topology::{LinkId, NodeId, Topology};

/// Frame interval at 60 FPS, the paper's video requirement (ms).
pub const FRAME_INTERVAL_60FPS_MS: f64 = 1000.0 / 60.0;

/// Stream configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Frames per second.
    pub fps: f64,
    /// Target bitrate, bits per second.
    pub bitrate_bps: f64,
    /// Group-of-pictures length (1 I-frame per GOP).
    pub gop: usize,
    /// I-frame size relative to the GOP-average frame size.
    pub i_frame_scale: f64,
    /// Mean encoder latency, ms.
    pub encode_ms: f64,
    /// Mean decoder latency, ms.
    pub decode_ms: f64,
    /// Per-frame delivery deadline, ms (motion-to-photon budget).
    pub deadline_ms: f64,
}

impl VideoConfig {
    /// The AR-headset stream of the paper's use case: 60 FPS, 20 ms
    /// motion-to-photon budget, lightweight hardware codec.
    pub fn ar_headset() -> Self {
        Self {
            fps: 60.0,
            bitrate_bps: 25e6,
            gop: 30,
            i_frame_scale: 4.0,
            encode_ms: 3.0,
            decode_ms: 2.0,
            deadline_ms: 20.0,
        }
    }

    /// A 4K telemedicine stream (Section III-B).
    pub fn telemedicine_4k() -> Self {
        Self {
            fps: 30.0,
            bitrate_bps: 45e6,
            gop: 60,
            i_frame_scale: 5.0,
            encode_ms: 8.0,
            decode_ms: 5.0,
            deadline_ms: 150.0,
        }
    }

    /// Average frame size, bytes.
    pub fn mean_frame_bytes(&self) -> f64 {
        self.bitrate_bps / self.fps / 8.0
    }

    /// I- and P-frame sizes in bytes, preserving the average.
    ///
    /// With one I-frame of scale `s` per GOP of `g` frames:
    /// `i + (g−1)·p = g·avg` and `i = s·p`.
    pub fn frame_sizes(&self) -> (u32, u32) {
        let avg = self.mean_frame_bytes();
        let g = self.gop as f64;
        let p = g * avg / (self.i_frame_scale + g - 1.0);
        ((self.i_frame_scale * p) as u32, p as u32)
    }
}

/// One generated frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Frame index since stream start.
    pub index: u64,
    /// True for I-frames.
    pub is_iframe: bool,
    /// Encoded size in bytes.
    pub bytes: u32,
    /// Capture timestamp, ms since stream start.
    pub capture_ms: f64,
}

/// Frame-sequence generator.
#[derive(Debug, Clone)]
pub struct VideoStream {
    config: VideoConfig,
}

/// Delivery statistics of a streamed session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamStats {
    /// Frames delivered.
    pub frames: u64,
    /// Mean end-to-end frame latency (encode + network + decode), ms.
    pub mean_latency_ms: f64,
    /// 99th-ish percentile via max over the run (conservative).
    pub max_latency_ms: f64,
    /// Fraction of frames missing the deadline.
    pub late_ratio: f64,
    /// Mean frame size on the wire, bytes.
    pub mean_frame_bytes: f64,
}

impl VideoStream {
    /// Creates a stream for a configuration.
    pub fn new(config: VideoConfig) -> Self {
        assert!(config.fps > 0.0 && config.gop > 0, "invalid stream config");
        Self { config }
    }

    /// The stream configuration.
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// Generates the first `n` frames.
    pub fn frames(&self, n: u64) -> Vec<Frame> {
        let (i_bytes, p_bytes) = self.config.frame_sizes();
        let interval = 1000.0 / self.config.fps;
        (0..n)
            .map(|index| {
                let is_iframe = index % self.config.gop as u64 == 0;
                Frame {
                    index,
                    is_iframe,
                    bytes: if is_iframe { i_bytes } else { p_bytes },
                    capture_ms: index as f64 * interval,
                }
            })
            .collect()
    }

    /// Streams `n` frames over `hops`, adding an `extra_rtt_ms` round-trip
    /// contribution (e.g. a radio access model's sample) to each frame,
    /// and reports delivery statistics.
    pub fn deliver(
        &self,
        topo: &Topology,
        hops: &[(NodeId, LinkId)],
        n: u64,
        mut extra_ms: impl FnMut(&mut SimRng) -> f64,
        rng: &mut SimRng,
    ) -> StreamStats {
        let sampler = DelaySampler::new(topo);
        let mut lat = Welford::new();
        let mut max_latency_ms = f64::NEG_INFINITY;
        let mut size = Welford::new();
        let mut late = 0u64;
        for frame in self.frames(n) {
            let codec = sixg_netsim::dist::LogNormal::from_mean_cv(
                self.config.encode_ms + self.config.decode_ms,
                0.2,
            );
            let network = sampler.one_way_ms(hops, frame.bytes, rng) + extra_ms(rng);
            let total = network + sixg_netsim::dist::Sample::sample(&codec, rng);
            if total > self.config.deadline_ms {
                late += 1;
            }
            lat.push(total);
            max_latency_ms = max_latency_ms.max(total);
            size.push(frame.bytes as f64);
        }
        StreamStats {
            frames: n,
            mean_latency_ms: lat.mean(),
            max_latency_ms,
            late_ratio: late as f64 / n.max(1) as f64,
            mean_frame_bytes: size.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::GeoPoint;
    use sixg_netsim::routing::{AsGraph, PathComputer};
    use sixg_netsim::topology::{Asn, LinkParams, NodeKind};

    fn short_path() -> (Topology, Vec<(NodeId, LinkId)>) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::UserEquipment, "a", GeoPoint::new(46.6, 14.3), Asn(1));
        let b = t.add_node(NodeKind::EdgeServer, "b", GeoPoint::new(46.62, 14.32), Asn(1));
        t.add_link(a, b, LinkParams::access_wired());
        let g = AsGraph::new();
        let hops = PathComputer::new(&t, &g).route(a, b).unwrap().hops;
        (t, hops)
    }

    #[test]
    fn frame_sizes_preserve_bitrate() {
        let c = VideoConfig::ar_headset();
        let (i, p) = c.frame_sizes();
        assert!(i > p);
        let gop_bytes = i as f64 + (c.gop as f64 - 1.0) * p as f64;
        let expect = c.gop as f64 * c.mean_frame_bytes();
        assert!((gop_bytes - expect).abs() / expect < 0.01, "{gop_bytes} vs {expect}");
    }

    #[test]
    fn gop_structure() {
        let s = VideoStream::new(VideoConfig::ar_headset());
        let frames = s.frames(61);
        assert!(frames[0].is_iframe);
        assert!(frames[30].is_iframe);
        assert!(frames[60].is_iframe);
        assert!(!frames[1].is_iframe);
        assert_eq!(frames.iter().filter(|f| f.is_iframe).count(), 3);
        // 60 FPS pacing.
        assert!((frames[1].capture_ms - FRAME_INTERVAL_60FPS_MS).abs() < 1e-9);
    }

    #[test]
    fn local_delivery_meets_ar_deadline() {
        let (t, hops) = short_path();
        let s = VideoStream::new(VideoConfig::ar_headset());
        let mut rng = SimRng::from_seed(1);
        let stats = s.deliver(&t, &hops, 600, |_| 0.0, &mut rng);
        assert!(stats.late_ratio < 0.01, "late {}", stats.late_ratio);
        assert!(stats.mean_latency_ms < 10.0, "mean {}", stats.mean_latency_ms);
    }

    #[test]
    fn high_extra_latency_blows_deadline() {
        let (t, hops) = short_path();
        let s = VideoStream::new(VideoConfig::ar_headset());
        let mut rng = SimRng::from_seed(2);
        // A 5G cell with ~60 ms access RTT: every frame is late.
        let stats = s.deliver(&t, &hops, 300, |_| 60.0, &mut rng);
        assert!(stats.late_ratio > 0.99, "late {}", stats.late_ratio);
    }

    #[test]
    fn stats_deterministic() {
        let (t, hops) = short_path();
        let s = VideoStream::new(VideoConfig::ar_headset());
        let a = s.deliver(&t, &hops, 100, |_| 1.0, &mut SimRng::from_seed(3));
        let b = s.deliver(&t, &hops, 100, |_| 1.0, &mut SimRng::from_seed(3));
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    }

    /// The largest frame latency is folded beside the mean accumulator;
    /// these bits were recorded when the accumulator still kept it.
    #[test]
    fn max_latency_bits_are_pinned() {
        let (t, hops) = short_path();
        let s = VideoStream::new(VideoConfig::ar_headset());
        let stats = s.deliver(&t, &hops, 600, |_| 0.0, &mut SimRng::from_seed(1));
        assert_eq!(
            stats.max_latency_ms.to_bits(),
            0x4022_655a_6980_97ce,
            "{}",
            stats.max_latency_ms
        );
    }

    #[test]
    fn telemedicine_profile_is_heavier() {
        let ar = VideoConfig::ar_headset();
        let tele = VideoConfig::telemedicine_4k();
        assert!(tele.mean_frame_bytes() > ar.mean_frame_bytes());
        assert!(tele.deadline_ms > ar.deadline_ms);
    }
}
