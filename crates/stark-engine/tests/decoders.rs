//! Adversarial-input tests for the decoders that read bytes off a socket:
//! the STK1 frame reader and the JSON codec behind every control message.
//!
//! Every truncation, every single-bit flip and every forged length prefix
//! must come back as `Err` (or a clean-EOF `None`), never as a panic, and
//! the frame reader must never allocate past [`MAX_FRAME_LEN`]. A counting
//! global allocator records the largest single allocation this test
//! binary makes, so the cap is checked, not assumed.

use stark_engine::plan::{PlanFragment, PlanInput, PlanSink};
use stark_engine::transport::{
    read_frame, recv_msg, send_msg, write_frame, DriverMsg, MAX_FRAME_LEN,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only records the requested size.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

fn task_msg() -> DriverMsg {
    DriverMsg::Task {
        id: 7,
        attempt: 1,
        fragment: PlanFragment {
            schema: "i64".into(),
            input: PlanInput::Inline,
            ops: vec![],
            sink: PlanSink::Count,
        },
        has_payload: true,
    }
}

/// A valid control frame followed by its raw payload frame.
fn task_frames() -> Vec<u8> {
    let mut buf = Vec::new();
    send_msg(&mut buf, &task_msg()).unwrap();
    write_frame(&mut buf, b"[1,2,3]").unwrap();
    buf
}

/// Reads a control message and its payload frame, as a worker does.
fn read_task(bytes: &[u8]) -> std::io::Result<Option<(DriverMsg, Vec<u8>)>> {
    let mut r = Cursor::new(bytes);
    let Some(msg) = recv_msg::<DriverMsg>(&mut r)? else { return Ok(None) };
    let payload = read_frame(&mut r)?.ok_or(std::io::ErrorKind::UnexpectedEof)?;
    Ok(Some((msg, payload)))
}

#[test]
fn every_truncation_of_a_valid_frame_is_an_error() {
    let frames = task_frames();
    assert!(read_task(&frames).unwrap().is_some());
    assert!(read_task(&[]).unwrap().is_none(), "empty input is a clean EOF");
    for cut in 1..frames.len() {
        match read_task(&frames[..cut]) {
            // a stream that ends inside the first length prefix reads as
            // the peer hanging up; anywhere later it is torn
            Ok(None) => assert!(cut < 4, "cut at {cut} read as a clean EOF"),
            Ok(Some(_)) => panic!("cut at {cut} decoded"),
            Err(_) => {}
        }
    }
    // a CRC-valid frame around truncated JSON fails in the decoder
    let json = serde_json::to_vec(&task_msg()).unwrap();
    for cut in 0..json.len() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &json[..cut]).unwrap();
        assert!(recv_msg::<DriverMsg>(&mut Cursor::new(&buf)).is_err(), "JSON cut at {cut}");
    }
}

#[test]
fn every_single_bit_flip_is_an_error() {
    let frames = task_frames();
    for offset in 0..frames.len() {
        for bit in 0..8 {
            let mut flipped = frames.clone();
            flipped[offset] ^= 1 << bit;
            assert!(read_task(&flipped).is_err(), "flip of bit {bit} at offset {offset}");
        }
    }
    assert!(LARGEST.load(Ordering::Relaxed) <= MAX_FRAME_LEN, "allocation past the frame cap");
}

#[test]
fn forged_length_prefixes_past_the_cap_are_rejected_before_allocation() {
    let frames = task_frames();
    let cap = MAX_FRAME_LEN as u64;
    for len in [cap + 1, cap + 4096, 1 << 31, u64::from(u32::MAX) - 1, u64::from(u32::MAX)] {
        let mut forged = frames.clone();
        forged[..4].copy_from_slice(&(len as u32).to_le_bytes());
        let err = read_task(&forged).unwrap_err();
        assert!(err.to_string().contains("exceeds max"), "length {len}: {err}");
    }
    assert!(LARGEST.load(Ordering::Relaxed) <= MAX_FRAME_LEN, "allocation past the frame cap");
}

#[test]
fn json_unicode_escapes_are_strict_and_pair_surrogates() {
    let decode = |s: &str| serde_json::from_slice::<String>(s.as_bytes());
    // `from_str_radix` accepted a sign: "\u+041" used to decode to "A"
    for bad in [r#""\u+041""#, r#""\u-041""#, r#""\ud83d""#, r#""\ud83dA""#, r#""\ude00""#] {
        assert!(decode(bad).is_err(), "{bad} must be rejected");
    }
    // RFC 8259 surrogate pairs, as Python's json.dumps writes non-BMP text
    assert_eq!(decode(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
    assert_eq!(decode(r#""caf\u00e9 \ud83d\ude00""#).unwrap(), "caf\u{e9} \u{1F600}");
}

#[test]
fn every_truncation_of_escapes_and_multibyte_text_is_an_error() {
    for text in [r#""\u00e9\ud83d\ude00""#, "\"h\u{e9}\u{1F600}\u{4e16}\"", r#"["\u0041A",1]"#] {
        let bytes = text.as_bytes();
        assert!(serde_json::from_slice::<serde_json::Value>(bytes).is_ok());
        for cut in 0..bytes.len() {
            let got = serde_json::from_slice::<serde_json::Value>(&bytes[..cut]);
            assert!(got.is_err(), "{text:?} cut at byte {cut} must be rejected");
        }
    }
}

/// Decodes `json` as `T`, asserting it takes under 5 s even unoptimised.
/// A decoder quadratic in string length needs about 24 s for one 1 MiB
/// string; a linear one needs milliseconds, so the bound carries no
/// timing ratio that parallel load could flake.
fn decode_within_5s<T: serde::de::DeserializeOwned>(json: &[u8]) -> T {
    let started = std::time::Instant::now();
    let value = serde_json::from_slice(json).expect("decode");
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(5), "{} KiB took {took:?}", json.len() >> 10);
    value
}

#[test]
fn a_mebibyte_of_json_strings_decodes_in_linear_time() {
    let one: String = "spatio-temporal \u{e9}vent ".chars().cycle().take(1 << 20).collect();
    let back: String = decode_within_5s(&serde_json::to_vec(&one).unwrap());
    assert_eq!(back, one);

    let many: Vec<String> =
        (0..(1usize << 20).div_ceil(17)).map(|i| format!("event-{i:08}")).collect();
    assert!(many.iter().all(|s| s.len() == 14));
    let json = serde_json::to_vec(&many).unwrap();
    assert!(json.len() >= 1 << 20);
    let back: Vec<String> = decode_within_5s(&json);
    assert_eq!(back, many);
}

#[test]
fn strings_mixing_runs_escapes_and_multibyte_decode_as_written() {
    let pieces =
        ["plain run ", "\"", "\\", "\n", "\t", "\u{1}", "\u{e9}", "\u{4e16}", "\u{1F600}", "/"];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..500 {
        let mut s = String::new();
        for _ in 0..(x % 24) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.push_str(pieces[(x % pieces.len() as u64) as usize]);
        }
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s, "{json}");
    }
}
