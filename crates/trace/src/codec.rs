//! Fixed-size binary record encoding for trace events.
//!
//! The relayfs channel in the authors' Linux instrumentation logged small
//! fixed-size binary records into a 512 MiB kernel buffer and converted
//! them to text offline. We use the same shape: every event encodes to
//! exactly [`RECORD_SIZE`] bytes so the ring buffer can reason in whole
//! records and a reader can seek freely.
//!
//! # Record layout
//!
//! The one table [`encode_record`] writes and [`EventView`] and [`decode`]
//! read. Every integer is little-endian.
//!
//! | offset | size | field                                             |
//! |--------|------|---------------------------------------------------|
//! |      0 |    8 | timestamp, ns                                     |
//! |      8 |    1 | kind, 0..=5                                       |
//! |      9 |    1 | space (bit 0) and flags (bits 1–4); bits 5–7 zero |
//! |     10 |    2 | reserved padding, zero                            |
//! |     12 |    4 | pid                                               |
//! |     16 |    4 | tid                                               |
//! |     20 |    4 | origin                                            |
//! |     24 |    8 | timer address                                     |
//! |     32 |    8 | timeout, ns, or `u64::MAX` when unknown           |
//! |     40 |    8 | expiry, ns, or `u64::MAX` when unknown            |
//!
//! Both decoders reject a record that breaks the table, checking length,
//! kind, space/flags bits and padding in that order, so every record they
//! accept re-encodes to exactly its own bytes.

use bytes::{Buf, BufMut};
use simtime::{SimDuration, SimInstant};

use crate::event::{Event, EventFlags, EventKind, Space};

/// The exact encoded size of one record, in bytes.
pub const RECORD_SIZE: usize = 48;

/// Sentinel encoding of `None` for optional u64 fields.
const NONE_SENTINEL: u64 = u64::MAX;

/// Errors produced while decoding a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than [`RECORD_SIZE`].
    Truncated {
        /// Bytes available.
        available: usize,
    },
    /// Unknown event-kind discriminant.
    BadKind(u8),
    /// The space/flags byte sets one of the undefined bits 5–7; carries
    /// the whole byte.
    BadFlags(u8),
    /// The reserved padding is not zero; carries its little-endian value.
    BadPadding(u16),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { available } => {
                write!(f, "truncated record: {available} of {RECORD_SIZE} bytes")
            }
            DecodeError::BadKind(k) => write!(f, "unknown event kind {k}"),
            DecodeError::BadFlags(b) => write!(f, "undefined space/flags bits in {b:#04x}"),
            DecodeError::BadPadding(p) => write!(f, "nonzero reserved padding {p:#06x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn kind_to_u8(kind: EventKind) -> u8 {
    match kind {
        EventKind::Init => 0,
        EventKind::Set => 1,
        EventKind::Cancel => 2,
        EventKind::Expire => 3,
        EventKind::WaitSatisfied => 4,
        EventKind::WaitTimedOut => 5,
    }
}

fn kind_from_u8(b: u8) -> Result<EventKind, DecodeError> {
    Ok(match b {
        0 => EventKind::Init,
        1 => EventKind::Set,
        2 => EventKind::Cancel,
        3 => EventKind::Expire,
        4 => EventKind::WaitSatisfied,
        5 => EventKind::WaitTimedOut,
        other => return Err(DecodeError::BadKind(other)),
    })
}

fn pack_space_flags(space: Space, flags: EventFlags) -> u8 {
    let mut b = 0u8;
    if matches!(space, Space::User) {
        b |= 1;
    }
    if flags.deferrable {
        b |= 1 << 1;
    }
    if flags.rounded {
        b |= 1 << 2;
    }
    if flags.countdown {
        b |= 1 << 3;
    }
    if flags.periodic_rearm {
        b |= 1 << 4;
    }
    b
}

fn unpack_space_flags(b: u8) -> (Space, EventFlags) {
    let space = if b & 1 != 0 {
        Space::User
    } else {
        Space::Kernel
    };
    let flags = EventFlags {
        deferrable: b & (1 << 1) != 0,
        rounded: b & (1 << 2) != 0,
        countdown: b & (1 << 3) != 0,
        periodic_rearm: b & (1 << 4) != 0,
    };
    (space, flags)
}

// Field offsets of the layout table in the module doc.
const OFF_TS: usize = 0;
const OFF_KIND: usize = 8;
const OFF_SPACE_FLAGS: usize = 9;
const OFF_PAD: usize = 10;
const OFF_PID: usize = 12;
const OFF_TID: usize = 16;
const OFF_ORIGIN: usize = 20;
const OFF_TIMER: usize = 24;
const OFF_TIMEOUT: usize = 32;
const OFF_EXPIRES: usize = 40;

/// The space/flags bits [`pack_space_flags`] can set.
const SPACE_FLAGS_MASK: u8 = 0x1F;

/// Encodes an event into one record, built in place at the layout's
/// offsets.
#[inline]
pub fn encode_record(event: &Event) -> [u8; RECORD_SIZE] {
    fn put<const N: usize>(rec: &mut [u8; RECORD_SIZE], off: usize, bytes: [u8; N]) {
        rec[off..off + N].copy_from_slice(&bytes);
    }
    // Zero-initialised, so the reserved padding needs no write.
    let mut rec = [0u8; RECORD_SIZE];
    put(&mut rec, OFF_TS, event.ts.as_nanos().to_le_bytes());
    rec[OFF_KIND] = kind_to_u8(event.kind);
    rec[OFF_SPACE_FLAGS] = pack_space_flags(event.space, event.flags);
    put(&mut rec, OFF_PID, event.pid.to_le_bytes());
    put(&mut rec, OFF_TID, event.tid.to_le_bytes());
    put(&mut rec, OFF_ORIGIN, event.origin.to_le_bytes());
    put(&mut rec, OFF_TIMER, event.timer.to_le_bytes());
    let timeout = event.timeout.map_or(NONE_SENTINEL, |d| d.as_nanos());
    put(&mut rec, OFF_TIMEOUT, timeout.to_le_bytes());
    let expires = event.expires.map_or(NONE_SENTINEL, |i| i.as_nanos());
    put(&mut rec, OFF_EXPIRES, expires.to_le_bytes());
    rec
}

/// Encodes an event into exactly [`RECORD_SIZE`] bytes appended to `buf`.
pub fn encode(event: &Event, buf: &mut impl BufMut) {
    buf.put_slice(&encode_record(event));
}

/// A borrowed, validated view over one encoded record.
///
/// [`decode_view`] performs the full validation [`decode`] would (length,
/// kind discriminant, space/flags bits, padding), so every accessor is
/// infallible and reads its field lazily straight off the backing slice.
/// Nothing is copied until [`EventView::to_event`]; the hot streaming path
/// never calls it.
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    bytes: &'a [u8; RECORD_SIZE],
}

impl<'a> EventView<'a> {
    /// Re-borrows a record that [`decode_view`] has already accepted,
    /// without checking it again.
    #[inline]
    pub(crate) fn from_validated(bytes: &'a [u8]) -> Self {
        debug_assert!(decode_view(bytes).is_ok(), "record was validated");
        EventView {
            bytes: bytes[..RECORD_SIZE].try_into().expect("a whole record"),
        }
    }

    #[inline]
    fn u64_at(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("fixed layout"))
    }

    #[inline]
    fn u32_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().expect("fixed layout"))
    }

    /// Timestamp in raw nanoseconds (the merge key).
    #[inline]
    pub fn ts_nanos(&self) -> u64 {
        self.u64_at(OFF_TS)
    }

    /// Virtual timestamp of the operation.
    #[inline]
    pub fn ts(&self) -> SimInstant {
        SimInstant::from_nanos(self.ts_nanos())
    }

    /// Operation kind (validated at view construction).
    #[inline]
    pub fn kind(&self) -> EventKind {
        match self.bytes[OFF_KIND] {
            0 => EventKind::Init,
            1 => EventKind::Set,
            2 => EventKind::Cancel,
            3 => EventKind::Expire,
            4 => EventKind::WaitSatisfied,
            _ => EventKind::WaitTimedOut,
        }
    }

    /// User/kernel space of the operation.
    #[inline]
    pub fn space(&self) -> Space {
        unpack_space_flags(self.bytes[OFF_SPACE_FLAGS]).0
    }

    /// Auxiliary flags.
    #[inline]
    pub fn flags(&self) -> EventFlags {
        unpack_space_flags(self.bytes[OFF_SPACE_FLAGS]).1
    }

    /// Owning process.
    #[inline]
    pub fn pid(&self) -> u32 {
        self.u32_at(OFF_PID)
    }

    /// Owning thread.
    #[inline]
    pub fn tid(&self) -> u32 {
        self.u32_at(OFF_TID)
    }

    /// Interned provenance label.
    #[inline]
    pub fn origin(&self) -> u32 {
        self.u32_at(OFF_ORIGIN)
    }

    /// Timer object identity.
    #[inline]
    pub fn timer(&self) -> u64 {
        self.u64_at(OFF_TIMER)
    }

    /// Raw timeout field: nanoseconds, or `u64::MAX` when unknown —
    /// exactly the wire encoding, for columnar consumers.
    #[inline]
    pub fn timeout_ns_raw(&self) -> u64 {
        self.u64_at(OFF_TIMEOUT)
    }

    /// Raw expiry field: nanoseconds, or `u64::MAX` when unknown.
    #[inline]
    pub fn expires_ns_raw(&self) -> u64 {
        self.u64_at(OFF_EXPIRES)
    }

    /// Relative timeout, when known.
    #[inline]
    pub fn timeout(&self) -> Option<SimDuration> {
        match self.u64_at(OFF_TIMEOUT) {
            NONE_SENTINEL => None,
            ns => Some(SimDuration::from_nanos(ns)),
        }
    }

    /// Absolute armed expiry, when known.
    #[inline]
    pub fn expires(&self) -> Option<SimInstant> {
        match self.u64_at(OFF_EXPIRES) {
            NONE_SENTINEL => None,
            ns => Some(SimInstant::from_nanos(ns)),
        }
    }

    /// Materialises the owned [`Event`] — the differential-oracle bridge,
    /// off the hot path.
    pub fn to_event(&self) -> Event {
        let (space, flags) = unpack_space_flags(self.bytes[OFF_SPACE_FLAGS]);
        Event {
            ts: self.ts(),
            kind: self.kind(),
            timer: self.timer(),
            timeout: self.timeout(),
            expires: self.expires(),
            origin: self.origin(),
            pid: self.pid(),
            tid: self.tid(),
            space,
            flags,
        }
    }
}

/// Validates the record at the front of `buf` and returns a borrowed view
/// over it, without copying or consuming anything.
///
/// Accepts exactly the inputs [`decode`] accepts and rejects exactly the
/// inputs it rejects (the `codec_fuzz` suite pins the equivalence); extra
/// bytes past the first record are ignored.
pub fn decode_view(buf: &[u8]) -> Result<EventView<'_>, DecodeError> {
    if buf.len() < RECORD_SIZE {
        return Err(DecodeError::Truncated {
            available: buf.len(),
        });
    }
    let bytes: &[u8; RECORD_SIZE] = buf[..RECORD_SIZE].try_into().expect("length checked");
    if bytes[OFF_KIND] > 5 {
        return Err(DecodeError::BadKind(bytes[OFF_KIND]));
    }
    check_space_flags(bytes[OFF_SPACE_FLAGS])?;
    check_padding(u16::from_le_bytes([bytes[OFF_PAD], bytes[OFF_PAD + 1]]))?;
    Ok(EventView { bytes })
}

fn check_space_flags(b: u8) -> Result<(), DecodeError> {
    if b & !SPACE_FLAGS_MASK != 0 {
        return Err(DecodeError::BadFlags(b));
    }
    Ok(())
}

fn check_padding(pad: u16) -> Result<(), DecodeError> {
    if pad != 0 {
        return Err(DecodeError::BadPadding(pad));
    }
    Ok(())
}

/// Decodes one record from the front of `buf`, checking it in the order
/// the module doc gives.
pub fn decode(buf: &mut impl Buf) -> Result<Event, DecodeError> {
    if buf.remaining() < RECORD_SIZE {
        return Err(DecodeError::Truncated {
            available: buf.remaining(),
        });
    }
    let ts = SimInstant::from_nanos(buf.get_u64_le());
    let kind = kind_from_u8(buf.get_u8())?;
    let space_flags = buf.get_u8();
    check_space_flags(space_flags)?;
    let (space, flags) = unpack_space_flags(space_flags);
    check_padding(buf.get_u16_le())?;
    let pid = buf.get_u32_le();
    let tid = buf.get_u32_le();
    let origin = buf.get_u32_le();
    let timer = buf.get_u64_le();
    let timeout = match buf.get_u64_le() {
        NONE_SENTINEL => None,
        ns => Some(SimDuration::from_nanos(ns)),
    };
    let expires = match buf.get_u64_le() {
        NONE_SENTINEL => None,
        ns => Some(SimInstant::from_nanos(ns)),
    };
    Ok(Event {
        ts,
        kind,
        timer,
        timeout,
        expires,
        origin,
        pid,
        tid,
        space,
        flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = Event> {
        (
            any::<u64>().prop_map(|n| n >> 1), // Keep below the sentinel.
            0u8..6,
            any::<u64>(),
            proptest::option::of((any::<u64>()).prop_map(|n| n >> 1)),
            proptest::option::of((any::<u64>()).prop_map(|n| n >> 1)),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<[bool; 4]>(),
        )
            .prop_map(
                |(ts, kind, timer, timeout, expires, origin, pid, tid, user, fl)| Event {
                    ts: SimInstant::from_nanos(ts),
                    kind: kind_from_u8(kind).unwrap(),
                    timer,
                    timeout: timeout.map(SimDuration::from_nanos),
                    expires: expires.map(SimInstant::from_nanos),
                    origin,
                    pid,
                    tid,
                    space: if user { Space::User } else { Space::Kernel },
                    flags: EventFlags {
                        deferrable: fl[0],
                        rounded: fl[1],
                        countdown: fl[2],
                        periodic_rearm: fl[3],
                    },
                },
            )
    }

    proptest! {
        #[test]
        fn roundtrip(event in arb_event()) {
            let mut buf = BytesMut::new();
            encode(&event, &mut buf);
            prop_assert_eq!(buf.len(), RECORD_SIZE);
            let mut slice = &buf[..];
            let back = decode(&mut slice).unwrap();
            prop_assert_eq!(event, back);
        }
    }

    #[test]
    fn record_size_is_exact() {
        let e = Event::new(SimInstant::BOOT, EventKind::Set, 1, 2);
        let mut buf = BytesMut::new();
        encode(&e, &mut buf);
        assert_eq!(buf.len(), RECORD_SIZE);
        assert_eq!(buf[..], encode_record(&e));
    }

    #[test]
    fn truncated_fails() {
        let mut short: &[u8] = &[0u8; RECORD_SIZE - 1];
        assert_eq!(
            decode(&mut short),
            Err(DecodeError::Truncated {
                available: RECORD_SIZE - 1
            })
        );
    }

    #[test]
    fn bad_kind_fails() {
        let mut bytes = [0u8; RECORD_SIZE];
        bytes[8] = 99; // Kind byte follows the 8-byte timestamp.
        let mut slice: &[u8] = &bytes;
        assert_eq!(decode(&mut slice), Err(DecodeError::BadKind(99)));
    }

    #[test]
    fn undefined_flag_bits_fail() {
        let mut bytes = encode_record(&Event::new(SimInstant::BOOT, EventKind::Set, 1, 2));
        bytes[OFF_SPACE_FLAGS] |= 1 << 5;
        let mut slice: &[u8] = &bytes;
        assert_eq!(decode(&mut slice), Err(DecodeError::BadFlags(0x20)));
        assert_eq!(decode_view(&bytes).err(), Some(DecodeError::BadFlags(0x20)));
    }

    #[test]
    fn nonzero_padding_fails_after_flags() {
        let mut bytes = encode_record(&Event::new(SimInstant::BOOT, EventKind::Set, 1, 2));
        bytes[OFF_PAD + 1] = 1;
        let mut slice: &[u8] = &bytes;
        assert_eq!(decode(&mut slice), Err(DecodeError::BadPadding(0x100)));
        assert_eq!(
            decode_view(&bytes).err(),
            Some(DecodeError::BadPadding(0x100))
        );
        // Flags are checked before padding.
        bytes[OFF_SPACE_FLAGS] = 0x80;
        assert_eq!(decode_view(&bytes).err(), Some(DecodeError::BadFlags(0x80)));
    }
}
