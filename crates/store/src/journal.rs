//! The append-only record journal.
//!
//! On-disk layout: a 4-byte magic header (`ZSJ2`) followed by records,
//! each framed as
//!
//! ```text
//! [len: u32 BE] [checksum(payload): u64 BE] [payload: len bytes]
//! ```
//!
//! **The checksum** reads the payload a little-endian `u64` word at a
//! time, the last word zero-padded:
//!
//! ```text
//! h ← SEED ⊕ len
//! h ← rotl((h ⊕ w) · K, R)      for each word w
//! checksum = fmix(h)
//! ```
//!
//! `K` is odd, so multiplying by it is a bijection of `u64`; so are
//! the xor and the rotation. One step is therefore a bijection of its
//! word for a fixed running state, and of the running state for a fixed
//! word. Change the bytes of one aligned word and leave the rest: the
//! state after that word's step changes, each later step is a bijection
//! of the state and so keeps it changed, and the final fold `fmix` is
//! invertible too. So any change confined to one word, every single-bit
//! flip among them, always changes the checksum. A change of length
//! changes the seed. Damage spread over several words is caught with
//! high probability, not always: this is corruption detection, not an
//! integrity guarantee (the restart's exact check against the live
//! chain is that).
//!
//! A `ZSJ1` file, the earlier format with FNV-1a checksums, is refused
//! with an error naming it and left as it is on disk.
//!
//! Appends buffer in the OS page cache; [`Journal::commit`] issues
//! `fdatasync`, which is the durability point — a record is *committed*
//! once commit returns. A crash mid-append leaves a torn tail: a frame
//! whose length field, checksum or payload is incomplete or corrupt.
//! [`Journal::open`] replays records until the first bad frame, then
//! truncates the file back to the last good record, so the torn tail
//! can never be half-applied or shadow later appends.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use zendoo_primitives::encode::{Decode, Encode, Reader};

const MAGIC: &[u8; 4] = b"ZSJ2";
/// The earlier format's header: byte-wise FNV-1a checksums.
const RETIRED_MAGIC: &[u8; 4] = b"ZSJ1";
/// Upper bound on a single record; a length field above this is treated
/// as corruption rather than an allocation request.
const MAX_RECORD: u32 = 1 << 28;
/// A frame's length and checksum fields.
const FRAME_HEADER: usize = <(u32, u64)>::MIN_LEN;

/// What [`Journal::open`] found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Well-formed records replayed.
    pub records: u64,
    /// Torn/corrupt tail bytes discarded (0 after a clean shutdown).
    pub torn_bytes: u64,
}

/// An append-only checksummed record log.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Byte length of the well-formed prefix (everything before this
    /// offset decoded cleanly; the file is truncated to it on open).
    len: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, invoking `replay` for
    /// every well-formed record in append order. A torn or corrupt
    /// tail is counted in the returned stats and truncated away.
    pub fn open(path: &Path, mut replay: impl FnMut(&[u8])) -> io::Result<(Journal, JournalStats)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        if contents.starts_with(RETIRED_MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is a ZSJ1 journal (FNV-1a checksums); this build reads ZSJ2 only",
                    path.display()
                ),
            ));
        }

        let mut stats = JournalStats::default();
        let mut good = 0usize;
        if contents.len() >= MAGIC.len() && &contents[..MAGIC.len()] == MAGIC {
            good = MAGIC.len();
            loop {
                let mut frame = Reader::new(&contents[good..]);
                let Ok((len, sum)) = frame.read::<(u32, u64)>() else {
                    break; // incomplete frame header: torn tail
                };
                if len > MAX_RECORD {
                    break; // hostile length
                }
                let Ok(payload) = frame.bytes(len as usize) else {
                    break; // incomplete payload
                };
                if checksum(payload) != sum {
                    break; // corrupt record
                }
                replay(payload);
                stats.records += 1;
                good += FRAME_HEADER + payload.len();
            }
        }
        // good == 0 here means an empty file (fresh journal) or one
        // with no magic header (garbage): start over with a header.
        stats.torn_bytes = (contents.len() - good) as u64;
        if good == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            good = MAGIC.len();
        } else if stats.torn_bytes > 0 {
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::Start(good as u64))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                len: good as u64,
            },
            stats,
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current well-formed length in bytes (including the header).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Appends one record. Durable only after [`Journal::commit`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        assert!(
            payload.len() as u64 <= MAX_RECORD as u64,
            "record exceeds MAX_RECORD"
        );
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        (payload.len() as u32, checksum(payload)).encode_into(&mut frame);
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Makes every appended record durable (`fdatasync`).
    pub fn commit(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// The frame checksum: one multiply a word. See the module docs for
/// why a change inside one word always shows.
fn checksum(payload: &[u8]) -> u64 {
    const SEED: u64 = 0x6a09_e667_f3bc_c908;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    const R: u32 = 29;
    let step = |h: u64, word: u64| ((h ^ word).wrapping_mul(K)).rotate_left(R);
    let mut words = payload.chunks_exact(8);
    let mut h = SEED ^ payload.len() as u64;
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(word));
    }
    // The 64-bit finalizer of MurmurHash3: each step is invertible.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("zendoo-journal-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn reopen_payloads(path: &Path) -> (Vec<Vec<u8>>, JournalStats) {
        let mut seen = Vec::new();
        let (_, stats) = Journal::open(path, |p| seen.push(p.to_vec())).unwrap();
        (seen, stats)
    }

    #[test]
    fn records_replay_in_order() {
        let path = temp_path("order");
        let (mut journal, _) = Journal::open(&path, |_| panic!("fresh")).unwrap();
        journal.append(b"one").unwrap();
        journal.append(b"two").unwrap();
        journal.commit().unwrap();
        drop(journal);
        let (seen, stats) = reopen_payloads(&path);
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(stats.records, 2);
        assert_eq!(stats.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_and_appends_resume() {
        let path = temp_path("torn");
        let (mut journal, _) = Journal::open(&path, |_| {}).unwrap();
        journal.append(b"committed").unwrap();
        journal.commit().unwrap();
        drop(journal);
        // Simulate a crash mid-append: a frame header promising more
        // payload than was written.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&100u32.to_be_bytes()).unwrap();
        f.write_all(&[0xAA; 20]).unwrap();
        drop(f);

        let (seen, stats) = reopen_payloads(&path);
        assert_eq!(seen, vec![b"committed".to_vec()]);
        assert_eq!(stats.torn_bytes, 24);

        // The truncation must let new appends land cleanly.
        let (mut journal, _) = Journal::open(&path, |_| {}).unwrap();
        journal.append(b"after-recovery").unwrap();
        journal.commit().unwrap();
        drop(journal);
        let (seen, stats) = reopen_payloads(&path);
        assert_eq!(
            seen,
            vec![b"committed".to_vec(), b"after-recovery".to_vec()]
        );
        assert_eq!(stats.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_good() {
        let path = temp_path("corrupt");
        let (mut journal, _) = Journal::open(&path, |_| {}).unwrap();
        journal.append(b"good").unwrap();
        journal.append(b"will-be-flipped").unwrap();
        journal.commit().unwrap();
        drop(journal);
        // Flip one byte inside the last record's payload.
        let mut contents = std::fs::read(&path).unwrap();
        let last = contents.len() - 1;
        contents[last] ^= 0x01;
        std::fs::write(&path, &contents).unwrap();

        let (seen, stats) = reopen_payloads(&path);
        assert_eq!(seen, vec![b"good".to_vec()]);
        assert!(stats.torn_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_known_answer() {
        let sums: Vec<u64> = [&b""[..], b"a", b"zendoo journal", &[0xff; 17]]
            .iter()
            .map(|payload| checksum(payload))
            .collect();
        assert_eq!(
            sums,
            vec![
                0xbd0e_d0d0_8a42_a70c,
                0x90d2_ebf7_76f1_32a1,
                0x55c5_e0d8_7968_67c9,
                0x681f_1232_b828_0006,
            ]
        );
    }

    /// Every single-bit flip changes the sum: each payload length from
    /// 0 to 17 (every tail length, one and two whole words), then 1 KiB.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut payloads: Vec<Vec<u8>> = (0..=17u8)
            .map(|len| (0..len).map(|i| i.wrapping_mul(37) ^ len).collect())
            .collect();
        payloads.push(
            (0..1024u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect(),
        );
        let mut flips = 0;
        for payload in &payloads {
            let sum = checksum(payload);
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), sum, "len {} bit {bit}", payload.len());
                flipped[bit / 8] ^= 1 << (bit % 8);
                flips += 1;
            }
        }
        assert_eq!(flips, 8 * (17 * 18 / 2 + 1024));
    }

    /// Zero padding does not make a payload and its zero-extension one:
    /// the length is in the seed.
    #[test]
    fn trailing_zeros_change_the_checksum() {
        assert_ne!(checksum(b"ab"), checksum(b"ab\0"));
        assert_ne!(checksum(b""), checksum(&[0; 8]));
    }

    #[test]
    fn a_zsj1_journal_is_refused_by_name_and_left_on_disk() {
        let path = temp_path("zsj1");
        let mut old = b"ZSJ1".to_vec();
        old.extend_from_slice(&3u32.to_be_bytes());
        old.extend_from_slice(&0u64.to_be_bytes());
        old.extend_from_slice(b"old");
        std::fs::write(&path, &old).unwrap();
        let error = Journal::open(&path, |_| panic!("nothing replays"))
            .err()
            .expect("a ZSJ1 journal is refused");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("ZSJ1"), "{error}");
        assert_eq!(std::fs::read(&path).unwrap(), old);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_without_magic_is_reset() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let (seen, stats) = reopen_payloads(&path);
        assert!(seen.is_empty());
        assert_eq!(stats.torn_bytes, 20);
        let _ = std::fs::remove_file(&path);
    }
}
