//! The application graphs.

use ccs_graph::{GraphBuilder, StreamGraph};

/// A named application workload.
pub struct App {
    pub name: &'static str,
    pub description: &'static str,
    pub graph: StreamGraph,
}

/// StreamIt's FM radio: a pipeline with a decimating low-pass front end,
/// FM demodulation, and a cascade of equalizer band filters.
///
/// `bands` equalizer sections (default in the literature: 8 or more).
pub fn fm_radio(bands: usize) -> StreamGraph {
    assert!(bands >= 1);
    let taps = 64u64;
    let mut b = GraphBuilder::new();
    let src = b.node("antenna", 16);
    // Low-pass FIR, decimating 4:1. State = taps coefficients + window.
    let lpf = b.node("lpf-decim", 2 * taps);
    b.edge(src, lpf, 4, 4); // src pushes 4 samples; lpf consumes 4
    let demod = b.node("fm-demod", 24);
    b.edge(lpf, demod, 1, 1);
    let mut prev = demod;
    for i in 0..bands {
        let eq = b.node(format!("eq-band-{i}"), 2 * taps + 8);
        b.edge(prev, eq, 1, 1);
        prev = eq;
    }
    let sum = b.node("eq-sum", 8);
    b.edge(prev, sum, 1, 1);
    let sink = b.node("speaker", 16);
    b.edge(sum, sink, 1, 1);
    b.build().expect("fm radio is a valid pipeline")
}

/// A multirate analysis/synthesis filter bank: `bands` parallel chains,
/// each decimating by `bands` and re-interpolating, summed at the end.
pub fn filterbank(bands: u64) -> StreamGraph {
    assert!(bands >= 2);
    let taps = 32u64;
    let mut b = GraphBuilder::new();
    let src = b.node("source", 16);
    let split = b.node("duplicate", 8);
    b.edge(src, split, 1, 1);
    let join = b.node("adder", 8 + bands);
    for band in 0..bands {
        // Analysis filter consumes `bands` samples, emits 1 (polyphase
        // decimation); synthesis emits `bands` again.
        let analysis = b.node(format!("analysis-{band}"), 2 * taps);
        b.edge(split, analysis, bands, bands);
        let down = b.node(format!("process-{band}"), 48);
        b.edge(analysis, down, 1, bands); // decimate: fires 1/bands as often
        let up = b.node(format!("synthesis-{band}"), 2 * taps);
        b.edge(down, up, 1, 1);
        b.edge(up, join, bands, 1); // interpolate back up
    }
    let sink = b.node("sink", 16);
    b.edge(join, sink, 1, 1);
    b.build().expect("filterbank is valid and rate matched")
}

/// A beamformer: `channels` input channels each with a two-stage FIR
/// front end; `beams` beam-forming nodes each combining one sample from
/// every channel; detectors into a collector sink. Homogeneous.
pub fn beamformer(channels: usize, beams: usize) -> StreamGraph {
    assert!(channels >= 1 && beams >= 1);
    let mut b = GraphBuilder::new();
    let src = b.node("source", 16);
    let mut chan_out = Vec::with_capacity(channels);
    for c in 0..channels {
        let coarse = b.node(format!("ch{c}-coarse"), 128);
        b.edge(src, coarse, 1, 1);
        let fine = b.node(format!("ch{c}-fine"), 64);
        b.edge(coarse, fine, 1, 1);
        chan_out.push(fine);
    }
    let collector = b.node("collector", 8 + beams as u64);
    for beam in 0..beams {
        // Beam weights: one complex weight per channel plus a work area.
        let bf = b.node(format!("beam{beam}"), 2 * channels as u64 + 16);
        for &ch in &chan_out {
            b.edge(ch, bf, 1, 1);
        }
        let det = b.node(format!("detect{beam}"), 32);
        b.edge(bf, det, 1, 1);
        b.edge(det, collector, 1, 1);
    }
    let sink = b.node("sink", 8);
    b.edge(collector, sink, 1, 1);
    b.build().expect("beamformer is valid")
}

/// An FFT dataflow: `log_n` butterfly stages over `2^log_n` lanes, with
/// per-node twiddle/workspace state.
pub fn fft(log_n: u32) -> StreamGraph {
    use ccs_graph::gen::{butterfly, StateDist};
    butterfly(log_n, StateDist::Fixed(32), 0xFF7)
}

/// A bitonic sorting network over `2^log_n` lanes: each stage is a column
/// of 2-in/2-out comparators. Homogeneous.
pub fn bitonic_sort(log_n: u32) -> StreamGraph {
    let width = 1usize << log_n;
    let mut b = GraphBuilder::new();
    let src = b.node("source", 8);
    // Lane heads.
    let mut lanes: Vec<_> = (0..width).map(|i| b.node(format!("in{i}"), 4)).collect();
    for &l in &lanes {
        b.edge(src, l, 1, 1);
    }
    // Bitonic network: for k in powers of two, j descending.
    let mut stage = 0usize;
    let mut k = 2usize;
    while k <= width {
        let mut j = k / 2;
        while j >= 1 {
            let mut next = lanes.clone();
            let mut done = vec![false; width];
            for i in 0..width {
                let partner = i ^ j;
                if partner > i && !done[i] {
                    done[i] = true;
                    done[partner] = true;
                    let cmp = b.node(format!("s{stage}c{i}"), 16);
                    b.edge(lanes[i], cmp, 1, 1);
                    b.edge(lanes[partner], cmp, 1, 1);
                    // Comparator emits both lanes.
                    let lo = b.node(format!("s{stage}o{i}"), 4);
                    let hi = b.node(format!("s{stage}o{partner}"), 4);
                    b.edge(cmp, lo, 1, 1);
                    b.edge(cmp, hi, 1, 1);
                    next[i] = lo;
                    next[partner] = hi;
                }
            }
            lanes = next;
            stage += 1;
            j /= 2;
        }
        k *= 2;
    }
    let sink = b.node("sink", 8);
    for &l in &lanes {
        b.edge(l, sink, 1, 1);
    }
    b.build().expect("bitonic network is valid")
}

/// A JPEG-style transform coder pipeline operating on 8x8 blocks. The
/// entropy stages use fixed design-point rates (see crate docs).
pub fn jpeg_like() -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("raster", 16);
    let shift = b.node("level-shift", 8);
    b.edge(src, shift, 64, 64);
    let dct = b.node("dct-8x8", 64 + 128); // block + cosine tables
    b.edge(shift, dct, 64, 64);
    let quant = b.node("quantize", 64 + 64);
    b.edge(dct, quant, 64, 64);
    let zigzag = b.node("zigzag", 64 + 64);
    b.edge(quant, zigzag, 64, 64);
    let rle = b.node("rle", 32);
    b.edge(zigzag, rle, 64, 64); // 64 coefficients in, ~16 symbols out
    let huff = b.node("entropy", 512); // code tables
    b.edge(rle, huff, 16, 16);
    let sink = b.node("bitstream", 16);
    b.edge(huff, sink, 8, 8);
    b.build().expect("jpeg pipeline is valid")
}

/// A channel vocoder: pipeline with an up-sampling tail — exercises gain
/// greater than one downstream.
pub fn vocoder(bands: usize) -> StreamGraph {
    assert!(bands >= 1);
    let mut b = GraphBuilder::new();
    let src = b.node("mic", 16);
    let window = b.node("window", 256 + 64);
    b.edge(src, window, 32, 32);
    let mut prev = window;
    for i in 0..bands {
        let band = b.node(format!("band-{i}"), 96);
        b.edge(prev, band, 1, 1);
        prev = band;
    }
    let pitch = b.node("pitch-shift", 128);
    b.edge(prev, pitch, 2, 2);
    let interp = b.node("interpolate", 64);
    b.edge(pitch, interp, 3, 1); // upsample 3x
    let smooth = b.node("smooth", 2 * 32);
    b.edge(interp, smooth, 1, 1);
    let sink = b.node("speaker", 16);
    b.edge(smooth, sink, 1, 1);
    b.build().expect("vocoder is valid")
}

/// A DES-style block cipher: an initial permutation, `rounds` Feistel
/// rounds (each with an S-box table as state), and a final permutation.
/// Operates on 2-word blocks; homogeneous per block.
pub fn des_like(rounds: usize) -> StreamGraph {
    assert!(rounds >= 1);
    let mut b = GraphBuilder::new();
    let src = b.node("plaintext", 8);
    let ip = b.node("initial-perm", 64);
    b.edge(src, ip, 2, 2);
    let mut prev = ip;
    for r in 0..rounds {
        // Each round holds its subkey schedule and S-box tables.
        let round = b.node(format!("round-{r}"), 256 + 48);
        b.edge(prev, round, 2, 2);
        prev = round;
    }
    let fp = b.node("final-perm", 64);
    b.edge(prev, fp, 2, 2);
    let sink = b.node("ciphertext", 8);
    b.edge(fp, sink, 2, 2);
    b.build().expect("des pipeline is valid")
}

/// Streaming dense matrix–vector multiply: the vector streams through
/// `rows` row-modules, each holding one matrix row of `cols` words and
/// emitting one dot product per `cols` inputs; a collector gathers the
/// row results.
pub fn matvec_stream(rows: usize, cols: u64) -> StreamGraph {
    assert!(rows >= 1 && cols >= 1);
    let mut b = GraphBuilder::new();
    let src = b.node("vector-in", 16);
    let fan = b.node("broadcast", 8);
    b.edge(src, fan, cols, cols);
    let gather = b.node("gather", 8 + rows as u64);
    for r in 0..rows {
        let row = b.node(format!("row-{r}"), cols);
        b.edge(fan, row, cols, cols); // sees the whole vector
        b.edge(row, gather, 1, 1); // emits one dot product
    }
    let sink = b.node("result", 8);
    b.edge(gather, sink, rows as u64, rows as u64);
    b.build().expect("matvec graph is valid")
}

/// An audio effects chain: delay lines (echo, reverb) are state-heavy
/// modules; a final limiter. Homogeneous sample-by-sample processing
/// with block-based I/O.
pub fn audio_effects(echo_taps: u64, reverb_size: u64) -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("adc", 16);
    let gain = b.node("input-gain", 8);
    b.edge(src, gain, 64, 64);
    let echo = b.node("echo", echo_taps);
    b.edge(gain, echo, 1, 1);
    let reverb = b.node("reverb", reverb_size);
    b.edge(echo, reverb, 1, 1);
    let eq_lo = b.node("eq-low", 2 * 32);
    b.edge(reverb, eq_lo, 1, 1);
    let eq_hi = b.node("eq-high", 2 * 32);
    b.edge(eq_lo, eq_hi, 1, 1);
    let limiter = b.node("limiter", 24);
    b.edge(eq_hi, limiter, 1, 1);
    let sink = b.node("dac", 16);
    b.edge(limiter, sink, 64, 64);
    b.build().expect("audio chain is valid")
}

/// The default benchmark suite with literature-typical parameters.
/// A phase-shift perturbation pipeline: uniform rates, but the first
/// half of the stages ("hot" stages) are bound — by
/// [`crate::bind::phase_shift_instance`] — to kernels whose per-firing
/// *work* steps up by a known multiple after a known firing count,
/// while their *output* stays the exact same function of the input
/// stream. The cost landscape a static placement was sized for shifts
/// mid-run; what is computed does not: every run must produce the
/// bit-identical sink digest.
pub fn phase_shift() -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("source", 16);
    let mut prev = src;
    for i in 0..4 {
        let stage = b.node(format!("phase-hot-{i}"), 96);
        b.edge(prev, stage, 1, 1);
        prev = stage;
    }
    for i in 0..4 {
        let stage = b.node(format!("phase-cold-{i}"), 96);
        b.edge(prev, stage, 1, 1);
        prev = stage;
    }
    let sink = b.node("sink", 16);
    b.edge(prev, sink, 1, 1);
    b.build().expect("phase-shift is a valid pipeline")
}

pub fn suite() -> Vec<App> {
    vec![
        App {
            name: "fm-radio",
            description: "FM radio with 8-band equalizer (pipeline, decimating)",
            graph: fm_radio(8),
        },
        App {
            name: "filterbank",
            description: "8-band multirate analysis/synthesis filter bank",
            graph: filterbank(8),
        },
        App {
            name: "beamformer",
            description: "4-channel, 4-beam beamformer (homogeneous dag)",
            graph: beamformer(4, 4),
        },
        App {
            name: "fft",
            description: "16-lane butterfly FFT network (homogeneous dag)",
            graph: fft(4),
        },
        App {
            name: "bitonic",
            description: "8-lane bitonic sorting network (homogeneous dag)",
            graph: bitonic_sort(3),
        },
        App {
            name: "jpeg",
            description: "JPEG-style 8x8 block transform coder (pipeline)",
            graph: jpeg_like(),
        },
        App {
            name: "vocoder",
            description: "channel vocoder with upsampling tail (pipeline)",
            graph: vocoder(6),
        },
        App {
            name: "des",
            description: "16-round Feistel block cipher (pipeline, 2-word blocks)",
            graph: des_like(16),
        },
        App {
            name: "matvec",
            description: "streaming 16x64 matrix-vector multiply (fan-out dag)",
            graph: matvec_stream(16, 64),
        },
        App {
            name: "audio",
            description: "audio effects chain with heavy delay lines (pipeline)",
            graph: audio_effects(1024, 4096),
        },
        App {
            name: "phase-shift",
            description: "seeded mid-run work-cost step (perturbation pipeline)",
            graph: phase_shift(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::RateAnalysis;

    #[test]
    fn all_apps_are_valid_single_io_rate_matched() {
        for app in suite() {
            let ra = RateAnalysis::analyze_single_io(&app.graph)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            assert!(ra.check_balance(&app.graph), "{}", app.name);
            assert!(app.graph.node_count() >= 5, "{} too trivial", app.name);
        }
    }

    #[test]
    fn fm_radio_is_pipeline() {
        let g = fm_radio(8);
        assert!(g.is_pipeline());
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        // Decimation by 4: sink fires 1/4 as often as source... source
        // pushes 4 per firing so q(src) = q(lpf); demod onward all fire at
        // lpf rate.
        let src = ra.source.unwrap();
        let sink = ra.sink.unwrap();
        assert_eq!(ra.q(src), ra.q(sink));
    }

    #[test]
    fn filterbank_rates_balance() {
        let g = filterbank(8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        assert!(ra.check_balance(&g));
        assert!(!g.is_pipeline());
        assert!(!g.is_homogeneous());
    }

    #[test]
    fn beamformer_homogeneous() {
        let g = beamformer(4, 4);
        assert!(g.is_homogeneous());
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        assert!(ra.repetitions.iter().all(|&q| q == 1));
    }

    #[test]
    fn bitonic_structure() {
        let g = bitonic_sort(3);
        assert!(g.is_homogeneous());
        RateAnalysis::analyze_single_io(&g).unwrap();
        // 8 lanes: 6 stages of 4 comparators, each comparator adds 3 nodes.
        assert!(g.node_count() > 8 + 2);
    }

    #[test]
    fn jpeg_gains_shrink_downstream() {
        let g = jpeg_like();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let src = ra.source.unwrap();
        let sink = ra.sink.unwrap();
        // 64 pixels -> 16 symbols -> 8 bits-ish: sink fires less often
        // per steady state than the pixel stages.
        assert!(ra.q(sink) <= ra.q(src));
    }

    #[test]
    fn vocoder_has_upsampling_gain() {
        let g = vocoder(6);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let src = ra.source.unwrap();
        let sink = ra.sink.unwrap();
        // The interpolate stage triples the rate.
        assert!(ra.gain_from(src, sink) > ccs_graph::Ratio::ZERO);
        assert!(ra.q(sink) > ra.q(src));
    }

    #[test]
    fn suite_has_varied_shapes() {
        let apps = suite();
        assert!(apps.iter().any(|a| a.graph.is_pipeline()));
        assert!(apps.iter().any(|a| !a.graph.is_pipeline()));
        assert!(apps.iter().any(|a| a.graph.is_homogeneous()));
        assert!(apps.iter().any(|a| !a.graph.is_homogeneous()));
        assert!(apps.len() >= 10);
    }

    #[test]
    fn des_rounds_scale() {
        let g8 = des_like(8);
        let g16 = des_like(16);
        assert_eq!(g16.node_count() - g8.node_count(), 8);
        assert!(g8.is_pipeline());
        let ra = RateAnalysis::analyze_single_io(&g16).unwrap();
        // Uniform 2:2 rates: everyone fires at the same rate.
        assert!(ra.repetitions.iter().all(|&q| q == 1));
    }

    #[test]
    fn matvec_structure() {
        let g = matvec_stream(16, 64);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        assert!(ra.check_balance(&g));
        assert!(!g.is_pipeline());
        // Each row module holds one row: 64 words.
        let rows: Vec<_> = g
            .node_ids()
            .filter(|&v| g.node(v).name.starts_with("row-"))
            .collect();
        assert_eq!(rows.len(), 16);
        for r in rows {
            assert_eq!(g.state(r), 64);
        }
    }

    #[test]
    fn audio_effects_state_dominated_by_delay_lines() {
        let g = audio_effects(1024, 4096);
        assert!(g.is_pipeline());
        RateAnalysis::analyze_single_io(&g).unwrap();
        assert!(g.total_state() > 5000);
        assert_eq!(g.max_state(), 4096);
    }
}
