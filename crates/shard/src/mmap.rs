//! Read-only file mappings without libc.
//!
//! On Linux/x86-64 the file is mapped with a raw `mmap` syscall
//! (`PROT_READ`, `MAP_PRIVATE`) so batch gathers copy straight from the
//! page cache — the zero-copy read path of the paper's data
//! pre-processors. Everywhere else (and for empty files) the fallback
//! reads on demand with positioned reads, which preserves the
//! larger-than-RAM property: neither variant ever materialises the whole
//! file in a heap buffer.
//!
//! Every access is bounds-checked against the length captured at open
//! time, so a short or corrupt file yields a typed error, not UB. Shard
//! files are sealed (written once, renamed into place) and never
//! truncated in place, which is what makes the mapping's length stable.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_MMAP: isize = 9;
    const SYS_MUNMAP: isize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Maps `len` bytes of `fd` read-only. Returns `None` on any kernel
    /// error (the caller falls back to positioned reads).
    pub(super) fn mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
        let ret: isize;
        // SAFETY: the raw `mmap` syscall touches no memory of this
        // process: it asks for a fresh read-only private mapping of `len`
        // bytes of an open `fd` at an address the kernel picks (`rdi` =
        // 0), so it cannot alias anything Rust owns. `rcx` and `r11`, which
        // `syscall` clobbers, are declared, and no stack is used. A failure
        // comes back as `-errno`, handled below.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MMAP => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd as isize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        // The kernel returns -errno in (-4096, 0) on failure.
        if (-4095..0).contains(&ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    pub(super) fn munmap(ptr: *const u8, len: usize) {
        let ret: isize;
        // SAFETY: called once, from `Mapping::drop`, with the `ptr` and
        // `len` that `mmap_readonly` returned; no slice borrowed from the
        // mapping outlives the `Mapping` (they borrow it), so nothing reads
        // the pages after they are unmapped. Clobbers are declared as for
        // `mmap`.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP => ret,
                in("rdi") ptr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        let _ = ret;
    }
}

/// A read-only view of a file: an `mmap` when the platform provides one,
/// positioned reads otherwise.
pub(crate) enum Mapping {
    /// Raw memory mapping (Linux/x86-64).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped {
        /// Page-aligned base returned by the kernel.
        ptr: *const u8,
        /// Mapped (= file) length in bytes.
        len: usize,
    },
    /// Positioned-read fallback.
    Direct {
        /// The open file.
        file: File,
        /// File length at open time.
        len: usize,
    },
}

// SAFETY: `ptr` names a read-only (`PROT_READ`), private mapping, never
// written through, and owned by exactly one `Mapping`, which unmaps it
// only on drop; moving that owner to another thread moves nothing the
// pages depend on. The other fields (`len`, `Direct`'s `File`) are `Send`
// themselves.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Send for Mapping {}
// SAFETY: every access through `&Mapping` to `ptr` is a read of
// immutable pages, bounds-checked against the length captured at open;
// concurrent reads of read-only memory cannot race. The other fields
// (`len`, `Direct`'s `File`) are `Sync` themselves.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Opens `path` and maps it read-only.
    pub(crate) fn open(path: &Path) -> io::Result<Mapping> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if len > 0 {
            use std::os::fd::AsRawFd;
            if let Some(ptr) = sys::mmap_readonly(file.as_raw_fd(), len) {
                // The fd can close now; the mapping keeps the pages.
                return Ok(Mapping::Mapped { ptr, len });
            }
        }
        Ok(Mapping::Direct { file, len })
    }

    /// Whether this mapping is a real `mmap` (vs the read fallback).
    pub(crate) fn is_mmap(&self) -> bool {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Mapping::Mapped { .. } => true,
            Mapping::Direct { .. } => false,
        }
    }

    /// File length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Mapping::Mapped { len, .. } => *len,
            Mapping::Direct { len, .. } => *len,
        }
    }

    /// Fails with `UnexpectedEof` unless `[offset, offset + len)` lies
    /// inside the file: `offset + len` must not overflow (`checked_add`)
    /// and must be at most the length captured at open.
    fn check_range(&self, offset: usize, len: usize) -> io::Result<()> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len() => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "read of {len} bytes at {offset} beyond file of {}",
                    self.len()
                ),
            )),
        }
    }

    /// Reads `[offset, offset + dst.len())` into `dst`. Fails (rather
    /// than faulting) when the range leaves the file.
    pub(crate) fn read_into(&self, offset: usize, dst: &mut [u8]) -> io::Result<()> {
        self.check_range(offset, dst.len())?;
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Mapping::Mapped { ptr, .. } => {
                // SAFETY: `check_range` proved `offset + dst.len()` does not
                // overflow and is at most `len`, the file length captured
                // at open and mapped whole, so the source range lies inside
                // the mapping. Sealed shard files are never truncated in
                // place, so those pages stay backed. `dst` is a distinct
                // `&mut` buffer, so the ranges cannot overlap.
                unsafe {
                    std::ptr::copy_nonoverlapping(ptr.add(offset), dst.as_mut_ptr(), dst.len());
                }
                Ok(())
            }
            Mapping::Direct { file, .. } => {
                use std::os::unix::fs::FileExt;
                file.read_exact_at(dst, offset as u64)
            }
        }
    }

    /// Borrowed view of `[offset, offset + len)`: the mapped bytes when
    /// this is an `mmap`, else a read into `scratch`. Bounds-checked before
    /// anything is read or allocated.
    pub(crate) fn bytes<'a>(
        &'a self,
        offset: usize,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> io::Result<&'a [u8]> {
        self.check_range(offset, len)?;
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Mapping::Mapped { ptr, .. } => {
                // SAFETY: `check_range` proved `offset + len` does not
                // overflow and is at most the file length captured at open
                // and mapped whole, so the slice lies inside the mapping.
                // Sealed shard files are never truncated in place and
                // nothing writes the read-only pages, so the bytes stay
                // valid and unchanged for the borrow of `self`.
                Ok(unsafe { std::slice::from_raw_parts(ptr.add(offset), len) })
            }
            Mapping::Direct { .. } => {
                scratch.resize(len, 0);
                self.read_into(offset, scratch)?;
                Ok(&scratch[..])
            }
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Mapping::Mapped { ptr, len } = self {
            sys::munmap(*ptr, *len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("crossbow-mmap-{}-{tag}.bin", std::process::id()));
        let mut f = File::create(&path).expect("create");
        f.write_all(bytes).expect("write");
        path
    }

    #[test]
    fn reads_match_file_contents() {
        let data: Vec<u8> = (0..=255u8).collect();
        let path = scratch_file("roundtrip", &data);
        let map = Mapping::open(&path).expect("open");
        assert_eq!(map.len(), 256);
        let mut buf = [0u8; 16];
        map.read_into(100, &mut buf).expect("read");
        assert_eq!(&buf[..], &data[100..116]);
        let mut sc = Vec::new();
        assert_eq!(map.bytes(0, 4, &mut sc).expect("bytes"), &data[..4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_bounds_reads_fail_without_faulting() {
        let path = scratch_file("oob", &[1, 2, 3, 4]);
        let map = Mapping::open(&path).expect("open");
        let mut buf = [0u8; 8];
        assert!(map.read_into(0, &mut buf).is_err());
        assert!(map.read_into(usize::MAX - 2, &mut buf).is_err());
        let mut sc = Vec::new();
        assert!(map.bytes(2, 3, &mut sc).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// An empty file takes the `Direct` fallback (a zero-length `mmap`
    /// is an error), and still answers reads by the same bounds: an empty
    /// read at the end succeeds, a one-byte read fails with
    /// `UnexpectedEof`.
    #[test]
    fn empty_files_fall_back_to_direct() {
        let path = scratch_file("empty", &[]);
        let map = Mapping::open(&path).expect("open");
        assert_eq!(map.len(), 0);
        assert!(!map.is_mmap());
        assert!(matches!(map, Mapping::Direct { len: 0, .. }));
        map.read_into(0, &mut []).expect("an empty read at the end");
        let mut sc = Vec::new();
        assert_eq!(map.bytes(0, 0, &mut sc).expect("empty view"), &[] as &[u8]);
        let err = map.read_into(0, &mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // The range is checked before the fallback sizes its scratch
        // buffer, so a huge length is an error, not an allocation.
        let err = map.bytes(1, usize::MAX - 1, &mut sc).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(sc.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// A read that ends exactly at the last byte is in bounds, through
    /// both entry points; one byte further is not.
    #[test]
    fn a_read_ending_exactly_at_the_end_succeeds() {
        let data: Vec<u8> = (0..100u8).collect();
        let path = scratch_file("exact-end", &data);
        let map = Mapping::open(&path).expect("open");
        let mut buf = [0u8; 10];
        map.read_into(90, &mut buf).expect("read to the end");
        assert_eq!(&buf[..], &data[90..]);
        let mut sc = Vec::new();
        assert_eq!(
            map.bytes(90, 10, &mut sc).expect("view to the end"),
            &data[90..]
        );
        assert_eq!(
            map.bytes(100, 0, &mut sc).expect("empty view at the end"),
            &[] as &[u8]
        );
        let err = map.read_into(91, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = map.bytes(91, 10, &mut sc).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let _ = std::fs::remove_file(&path);
    }

    /// `offset + len` overflowing `usize` is a typed `UnexpectedEof`
    /// from both entry points, never a wrapped offset or a fault.
    #[test]
    fn an_overflowing_range_is_a_typed_eof() {
        let path = scratch_file("overflow", &[9u8; 32]);
        let map = Mapping::open(&path).expect("open");
        let mut buf = [0u8; 8];
        let err = map.read_into(usize::MAX - 3, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut sc = Vec::new();
        for (offset, len) in [(usize::MAX, 1), (1, usize::MAX), (usize::MAX - 3, 8)] {
            let err = map.bytes(offset, len, &mut sc).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{offset}+{len}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn linux_x86_64_uses_the_real_mmap() {
        let path = scratch_file("realmap", &[7u8; 64]);
        let map = Mapping::open(&path).expect("open");
        assert!(map.is_mmap(), "syscall mapping must engage on this target");
        let mut sc = Vec::new();
        // The zero-copy view must not touch the scratch buffer.
        assert_eq!(map.bytes(8, 8, &mut sc).expect("bytes"), &[7u8; 8]);
        assert!(sc.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
