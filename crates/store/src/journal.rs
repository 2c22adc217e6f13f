//! The append-only record journal.
//!
//! On-disk layout: a 4-byte magic header (`ZSJ1`) followed by records,
//! each framed as
//!
//! ```text
//! [len: u32 BE] [fnv1a64(payload): u64 BE] [payload: len bytes]
//! ```
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

const MAGIC: &[u8; 4] = b"ZSJ1";
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

        let mut stats = JournalStats::default();
        let mut good = 0usize;
        if contents.len() >= MAGIC.len() && &contents[..MAGIC.len()] == MAGIC {
            good = MAGIC.len();
            loop {
                let mut frame = Reader::new(&contents[good..]);
                let Ok((len, checksum)) = frame.read::<(u32, u64)>() else {
                    break; // incomplete frame header: torn tail
                };
                if len > MAX_RECORD {
                    break; // hostile length
                }
                let Ok(payload) = frame.bytes(len as usize) else {
                    break; // incomplete payload
                };
                if fnv1a64(payload) != checksum {
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
        (payload.len() as u32, fnv1a64(payload)).encode_into(&mut frame);
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

/// FNV-1a 64-bit — cheap, dependency-free corruption detection for
/// record payloads (not a cryptographic integrity guarantee; the state
/// digest comparison provides end-to-end verification).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
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
    fn garbage_file_without_magic_is_reset() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let (seen, stats) = reopen_payloads(&path);
        assert!(seen.is_empty());
        assert_eq!(stats.torn_bytes, 20);
        let _ = std::fs::remove_file(&path);
    }
}
