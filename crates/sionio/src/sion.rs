//! The SIONlib-style container format.
//!
//! SIONlib "bundles all data locally generated by applications, and stores
//! it into one or very few large files, that the file system can easily
//! manage" (§III-C): each of N tasks gets an aligned chunk inside one shared
//! file, so N task-local streams cost the file system one file instead of N.
//!
//! [`SionContainer`] implements the chunked layout over a [`ParallelFs`]:
//! a header records task count and chunk geometry; task `i` writes into its
//! own chunk without coordinating with the others (chunks are
//! stripe-aligned so writers do not share stripes).

use crate::pfs::{FsError, ParallelFs};
use hwmodel::SimTime;

/// Errors from container operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SionError {
    /// Task index out of range.
    BadTask {
        /// Requested task.
        task: usize,
        /// Tasks in the container.
        tasks: usize,
    },
    /// Data larger than the task's chunk.
    ChunkOverflow {
        /// Bytes attempted.
        len: u64,
        /// Chunk capacity.
        chunk: u64,
    },
    /// Underlying file-system error.
    Fs(FsError),
}

impl std::fmt::Display for SionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SionError::BadTask { task, tasks } => write!(f, "task {task} out of {tasks}"),
            SionError::ChunkOverflow { len, chunk } => {
                write!(f, "chunk overflow: {len} B into {chunk} B chunk")
            }
            SionError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SionError {}

impl From<FsError> for SionError {
    fn from(e: FsError) -> Self {
        SionError::Fs(e)
    }
}

/// Header size reserved at the front of the shared file.
const HEADER: u64 = 4096;

/// An open SION container: one shared file, one chunk per task.
#[derive(Clone)]
pub struct SionContainer {
    fs: ParallelFs,
    path: String,
    tasks: usize,
    chunk_size: u64,
}

impl SionContainer {
    /// Create a container for `tasks` tasks with `chunk_size` bytes each.
    /// The chunk size is rounded up to the file system's stripe size so
    /// concurrent writers never share a stripe.
    pub fn create(
        fs: &ParallelFs,
        path: impl Into<String>,
        tasks: usize,
        chunk_size: u64,
    ) -> Result<(Self, SimTime), SionError> {
        assert!(tasks >= 1, "container needs at least one task");
        let path = path.into();
        let stripe = crate::pfs::STRIPE_SIZE;
        let chunk_size = chunk_size.div_ceil(stripe) * stripe;
        // Header: magic, task count, chunk size (textual for debuggability;
        // the real SIONlib header is binary but serves the same purpose).
        // The file is pre-sized to its full extent — a metadata-level
        // allocation, so only the header write is charged.
        let header = format!("SION1\nntasks={tasks}\nchunk={chunk_size}\n");
        let total = HEADER + tasks as u64 * (8 + chunk_size);
        let mut block = vec![0u8; total as usize];
        block[..header.len()].copy_from_slice(header.as_bytes());
        let t = fs.transfer_time(HEADER);
        fs.write(path.clone(), &block);
        Ok((
            SionContainer {
                fs: fs.clone(),
                path,
                tasks,
                chunk_size,
            },
            t,
        ))
    }

    /// Open an existing container.
    pub fn open(fs: &ParallelFs, path: &str) -> Result<(Self, SimTime), SionError> {
        let (head, t) = fs.read_at(path, 0, HEADER)?;
        let text = String::from_utf8_lossy(&head);
        let mut tasks = None;
        let mut chunk = None;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("ntasks=") {
                tasks = v.trim_end_matches('\0').parse::<usize>().ok();
            }
            if let Some(v) = line.strip_prefix("chunk=") {
                chunk = v.trim_end_matches('\0').parse::<u64>().ok();
            }
        }
        let (tasks, chunk_size) = match (tasks, chunk) {
            (Some(t), Some(c)) => (t, c),
            _ => {
                return Err(SionError::Fs(FsError::NotFound(format!(
                    "{path}: bad SION header"
                ))))
            }
        };
        Ok((
            SionContainer {
                fs: fs.clone(),
                path: path.into(),
                tasks,
                chunk_size,
            },
            t,
        ))
    }

    /// Byte offset of a task's chunk within the shared file.
    fn chunk_offset(&self, task: usize) -> Result<u64, SionError> {
        if task >= self.tasks {
            return Err(SionError::BadTask {
                task,
                tasks: self.tasks,
            });
        }
        Ok(HEADER + task as u64 * (8 + self.chunk_size))
    }

    /// Write a task's data into its chunk (length-prefixed).
    pub fn write_task(&self, task: usize, data: &[u8]) -> Result<SimTime, SionError> {
        if data.len() as u64 > self.chunk_size {
            return Err(SionError::ChunkOverflow {
                len: data.len() as u64,
                chunk: self.chunk_size,
            });
        }
        let off = self.chunk_offset(task)?;
        let mut framed = Vec::with_capacity(8 + data.len());
        framed.extend_from_slice(&(data.len() as u64).to_le_bytes());
        framed.extend_from_slice(data);
        Ok(self.fs.write_at(&self.path, off, &framed))
    }

    /// Read a task's data back.
    pub fn read_task(&self, task: usize) -> Result<(Vec<u8>, SimTime), SionError> {
        let off = self.chunk_offset(task)?;
        let (len_bytes, t1) = self.fs.read_at(&self.path, off, 8)?;
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes"));
        if len == 0 {
            return Ok((Vec::new(), t1));
        }
        let (data, t2) = self.fs.read_at(&self.path, off + 8, len)?;
        Ok((data, t1 + t2))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "concurrent SION writers under test need real threads racing the shared container"
)]
mod tests {
    use super::*;

    fn fs() -> ParallelFs {
        ParallelFs::deep_er()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let fs = fs();
        let (c, t0) = SionContainer::create(&fs, "/sion/ckpt.sion", 4, 1000).unwrap();
        assert!(t0 > SimTime::ZERO);
        assert_eq!(c.tasks, 4);
        // Chunk rounded to the 512 KiB stripe.
        assert_eq!(c.chunk_size, 512 * 1024);
        for task in 0..4 {
            c.write_task(task, format!("task-{task}-payload").as_bytes())
                .unwrap();
        }
        for task in 0..4 {
            let (d, _) = c.read_task(task).unwrap();
            assert_eq!(d, format!("task-{task}-payload").as_bytes());
        }
    }

    #[test]
    fn one_shared_file_not_n() {
        let fs = fs();
        let (c, _) = SionContainer::create(&fs, "/one.sion", 64, 100).unwrap();
        for t in 0..64 {
            c.write_task(t, &[t as u8; 100]).unwrap();
        }
        assert_eq!(fs.list().len(), 1, "SIONlib's whole point");
    }

    #[test]
    fn reopen_recovers_geometry() {
        let fs = fs();
        let (c, _) = SionContainer::create(&fs, "/re.sion", 3, 2048).unwrap();
        c.write_task(2, b"persisted").unwrap();
        let (c2, _) = SionContainer::open(&fs, "/re.sion").unwrap();
        assert_eq!(c2.tasks, 3);
        assert_eq!(c2.chunk_size, c.chunk_size);
        let (d, _) = c2.read_task(2).unwrap();
        assert_eq!(d, b"persisted");
    }

    #[test]
    fn bounds_are_enforced() {
        let fs = fs();
        let (c, _) = SionContainer::create(&fs, "/b.sion", 2, 100).unwrap();
        assert!(matches!(
            c.write_task(5, b"x"),
            Err(SionError::BadTask { task: 5, tasks: 2 })
        ));
        assert!(matches!(c.read_task(2), Err(SionError::BadTask { .. })));
        let too_big = vec![0u8; (c.chunk_size + 1) as usize];
        assert!(matches!(
            c.write_task(0, &too_big),
            Err(SionError::ChunkOverflow { .. })
        ));
    }

    #[test]
    fn unwritten_chunk_reads_empty() {
        let fs = fs();
        let (c, _) = SionContainer::create(&fs, "/e.sion", 2, 100).unwrap();
        let (d, _) = c.read_task(1).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn open_missing_or_corrupt_fails() {
        let fs = fs();
        assert!(SionContainer::open(&fs, "/ghost.sion").is_err());
        fs.write("/corrupt.sion", &vec![0u8; 8192]);
        assert!(SionContainer::open(&fs, "/corrupt.sion").is_err());
    }

    #[test]
    fn concurrent_task_writers() {
        let fs = fs();
        let (c, _) = SionContainer::create(&fs, "/par.sion", 8, 4096).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = c.clone();
                s.spawn(move || c.write_task(t, &[t as u8; 4096]).unwrap());
            }
        });
        for t in 0..8 {
            let (d, _) = c.read_task(t).unwrap();
            assert_eq!(d, vec![t as u8; 4096]);
        }
    }
}
