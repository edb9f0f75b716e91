//! The simulated data memory: three arenas (static data, heap, stack)
//! decoded by address range, matching [`dl_mips::layout`].

use std::fmt;

use dl_mips::layout::{DATA_BASE, HEAP_BASE, STACK_TOP};

/// Default stack arena size (4 MiB).
pub const STACK_SIZE: u32 = 4 * 1024 * 1024;

/// Default heap arena capacity (64 MiB address space; committed lazily).
pub const HEAP_CAP: u32 = 64 * 1024 * 1024;

/// Lowest valid stack address.
pub const STACK_LIMIT: u32 = STACK_TOP + 16 - STACK_SIZE;

/// A faulting memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Address not inside any mapped arena (null/text/unallocated heap).
    Unmapped(u32),
    /// Address not aligned to the access width.
    Misaligned(u32),
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped(a) => write!(f, "unmapped address {a:#010x}"),
            MemFault::Misaligned(a) => write!(f, "misaligned access at {a:#010x}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// Simulated memory: static data, a bump-allocated heap, and a
/// fixed-size stack.
///
/// # Example
///
/// ```
/// use dl_mips::layout::DATA_BASE;
/// let mut m = dl_sim::mem::Memory::new(&[0u8; 64]);
/// m.write_u32(DATA_BASE + 8, 0xdead_beef).unwrap();
/// assert_eq!(m.read_u32(DATA_BASE + 8).unwrap(), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    heap: Vec<u8>,
    heap_brk: u32,
    stack: Vec<u8>,
}

impl Memory {
    /// Creates memory with the given initial static-data image.
    #[must_use]
    pub fn new(data_image: &[u8]) -> Self {
        // The static arena always covers the full gp-reachable window
        // (gp sits 32 KiB in; signed 16-bit offsets reach 32 KiB past
        // it), plus slack beyond the image for zeroed globals.
        let mut data = data_image.to_vec();
        data.resize(data.len().max(0x1_0000) + 64, 0);
        Memory {
            data,
            heap: Vec::new(),
            heap_brk: HEAP_BASE,
            stack: vec![0; STACK_SIZE as usize],
        }
    }

    /// Allocates `size` bytes on the heap (8-byte aligned), returning
    /// the block address. This backs the `malloc` syscall.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] if the heap is exhausted.
    pub fn malloc(&mut self, size: u32) -> Result<u32, MemFault> {
        let aligned = size.max(1).div_ceil(8) * 8;
        let addr = self.heap_brk;
        let new_brk = addr
            .checked_add(aligned)
            .filter(|&b| b <= HEAP_BASE + HEAP_CAP)
            .ok_or(MemFault::Unmapped(addr))?;
        self.heap_brk = new_brk;
        self.heap.resize((new_brk - HEAP_BASE) as usize, 0);
        Ok(addr)
    }

    /// Current heap break (first unallocated heap address).
    #[must_use]
    pub fn heap_brk(&self) -> u32 {
        self.heap_brk
    }

    #[inline]
    fn slot(&mut self, addr: u32, len: u32) -> Result<&mut [u8], MemFault> {
        let (arena, base): (&mut Vec<u8>, u32) = if addr >= STACK_LIMIT {
            (&mut self.stack, STACK_LIMIT)
        } else if addr >= HEAP_BASE {
            (&mut self.heap, HEAP_BASE)
        } else if addr >= DATA_BASE {
            (&mut self.data, DATA_BASE)
        } else {
            return Err(MemFault::Unmapped(addr));
        };
        let off = (addr - base) as usize;
        let end = off + len as usize;
        if end > arena.len() {
            return Err(MemFault::Unmapped(addr));
        }
        Ok(&mut arena[off..end])
    }

    #[inline]
    fn check_align(addr: u32, len: u32) -> Result<(), MemFault> {
        if !addr.is_multiple_of(len) {
            Err(MemFault::Misaligned(addr))
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses.
    #[inline]
    pub fn read_u8(&mut self, addr: u32) -> Result<u8, MemFault> {
        Ok(self.slot(addr, 1)?[0])
    }

    /// Reads a 16-bit little-endian value.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    #[inline]
    pub fn read_u16(&mut self, addr: u32) -> Result<u16, MemFault> {
        Self::check_align(addr, 2)?;
        let s = self.slot(addr, 2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a 32-bit little-endian value.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    #[inline]
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, MemFault> {
        Self::check_align(addr, 4)?;
        let s = self.slot(addr, 4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemFault> {
        self.slot(addr, 1)?[0] = v;
        Ok(())
    }

    /// Writes a 16-bit little-endian value.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), MemFault> {
        Self::check_align(addr, 2)?;
        self.slot(addr, 2)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a 32-bit little-endian value.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), MemFault> {
        Self::check_align(addr, 4)?;
        self.slot(addr, 4)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_read_write() {
        let mut m = Memory::new(&[1, 2, 3, 4]);
        assert_eq!(m.read_u8(DATA_BASE).unwrap(), 1);
        assert_eq!(m.read_u32(DATA_BASE).unwrap(), 0x04030201);
        m.write_u16(DATA_BASE + 2, 0xbeef).unwrap();
        assert_eq!(m.read_u16(DATA_BASE + 2).unwrap(), 0xbeef);
    }

    #[test]
    fn stack_read_write() {
        let mut m = Memory::new(&[]);
        let sp = STACK_TOP - 16;
        m.write_u32(sp, 77).unwrap();
        assert_eq!(m.read_u32(sp).unwrap(), 77);
    }

    #[test]
    fn null_faults() {
        let mut m = Memory::new(&[]);
        assert_eq!(m.read_u32(0), Err(MemFault::Unmapped(0)));
        assert_eq!(m.read_u8(0x0040_0000), Err(MemFault::Unmapped(0x0040_0000)));
    }

    #[test]
    fn misalignment_faults() {
        let mut m = Memory::new(&[0; 16]);
        assert_eq!(
            m.read_u32(DATA_BASE + 2),
            Err(MemFault::Misaligned(DATA_BASE + 2))
        );
        assert_eq!(
            m.write_u16(DATA_BASE + 1, 1),
            Err(MemFault::Misaligned(DATA_BASE + 1))
        );
    }

    #[test]
    fn heap_grows_via_malloc() {
        let mut m = Memory::new(&[]);
        let a = m.malloc(10).unwrap();
        assert_eq!(a, HEAP_BASE);
        let b = m.malloc(1).unwrap();
        assert_eq!(b, HEAP_BASE + 16); // 10 rounds up to 16
        m.write_u32(b, 5).unwrap();
        assert_eq!(m.read_u32(b).unwrap(), 5);
        // Past the brk faults.
        assert!(m.read_u32(m.heap_brk()).is_err());
    }

    #[test]
    fn unallocated_heap_faults() {
        let mut m = Memory::new(&[]);
        assert!(m.read_u32(HEAP_BASE).is_err());
    }

    #[test]
    fn malloc_zero_still_unique() {
        let mut m = Memory::new(&[]);
        let a = m.malloc(0).unwrap();
        let b = m.malloc(0).unwrap();
        assert_ne!(a, b);
    }
}
