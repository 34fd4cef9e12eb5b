//! Pins the seeded input images bit for bit. Every simulated fingerprint
//! (golden counts, perfbench checks, the cold/warm cells) starts from
//! `bench_image` or `ImageGenerator::natural`, so a faster generator must
//! reproduce these hashes exactly. Hashes are FNV-1a over the dimensions
//! and the raw pixel bits (`to_bits` for f32), taken on x86-64 Linux.

use isp_exec::bench_image;
use isp_image::{Image, ImageGenerator, Pixel};

/// FNV-1a over the image's dimensions and each pixel's bits, row by row
/// (stride padding excluded).
fn hash<T: Pixel>(img: &Image<T>, bits: impl Fn(T) -> u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (w, h_px) = img.dims();
    let pixels = (0..h_px).flat_map(|y| img.row(y).iter().map(|&p| bits(p)));
    for word in [w as u64, h_px as u64].into_iter().chain(pixels) {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `bench_image(size)`: (size, hash).
const BENCH: [(usize, u64); 5] = [
    (1, 0xa4d5ded575b18d79),
    (7, 0x48187a2da37033cb),
    (64, 0x74f008ca59c92205),
    (96, 0x75f6bdfaac7d4d27),
    (128, 0x5b518a65d47ebe21),
];

/// `ImageGenerator::new(seed).natural(w, h)`: (seed, w, h, u8 hash, f32
/// hash). Non-square and odd sizes on purpose: a per-row or per-column
/// table must index both axes correctly.
const NATURAL: [(u64, usize, usize, u64, u64); 8] = [
    (7, 1, 1, 0xf048022d144b941f, 0x4a480187cd776399),
    (7, 64, 64, 0xa76f0fa015869995, 0xe6ce9e8260ca05ab),
    (7, 96, 40, 0x0038bc86261c000e, 0x350dcd5d31db987e),
    (7, 513, 7, 0x9373a9e7558efaed, 0xca73e87917f4c957),
    (42, 7, 513, 0x8274911d07e77a47, 0x7bd41df28136f764),
    (42, 96, 40, 0xcb7f19a5abd623b4, 0x22269c36a63da676),
    (42, 513, 7, 0x0428776aef482ba5, 0xeb12224b30057a19),
    (42, 200, 128, 0x18166e4d90860ba6, 0xa5b4f1689d7fb84a),
];

#[test]
fn bench_image_is_pinned() {
    for (size, want) in BENCH {
        let got = hash(&bench_image(size), |p: f32| p.to_bits() as u64);
        assert_eq!(got, want, "bench_image({size}): {got:#018x}");
    }
}

#[test]
fn natural_images_are_pinned() {
    for (seed, w, h, want_u8, want_f32) in NATURAL {
        let gen = ImageGenerator::new(seed);
        let got_u8 = hash(&gen.natural::<u8>(w, h), |p: u8| p as u64);
        let got_f32 = hash(&gen.natural::<f32>(w, h), |p: f32| p.to_bits() as u64);
        assert_eq!(
            (got_u8, got_f32),
            (want_u8, want_f32),
            "natural({w}, {h}) seed {seed}: (u8, f32) = ({got_u8:#018x}, {got_f32:#018x})"
        );
    }
}
