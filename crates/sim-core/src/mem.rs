//! Backing storage for the simulated shared address space.
//!
//! [`FlatMem`] is used by the hardware-coherent platforms, where coherence
//! guarantees a single logical copy of every datum; the SVM platform keeps
//! per-node page frames instead (see the `svm-hlrc` crate) because the HLRC
//! protocol's whole point is that nodes hold *different* copies between
//! synchronizations.

use crate::addr::{Addr, HEAP_BASE};

/// A flat, growable byte memory indexed by simulated addresses.
///
/// Addresses below [`HEAP_BASE`] are invalid by construction (the allocator
/// never hands them out), letting us catch stray-null style application bugs.
#[derive(Clone, Debug, Default)]
pub struct FlatMem {
    data: Vec<u8>,
}

impl FlatMem {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `len` host bytes backing `[addr, addr + len)`, grown (zeroed) on
    /// demand — also what a flat-memory platform's
    /// [`crate::Platform::free_extent`] lends the bulk loop.
    #[inline]
    pub fn window(&mut self, addr: Addr, len: usize) -> &mut [u8] {
        assert!(addr >= HEAP_BASE, "access below heap base: {addr:#x}");
        let off = (addr - HEAP_BASE) as usize;
        if off + len > self.data.len() {
            self.data.resize((off + len).next_power_of_two(), 0);
        }
        &mut self.data[off..off + len]
    }

    /// Load up to 8 bytes, little-endian, zero-extended into a u64.
    #[inline]
    pub fn load(&mut self, addr: Addr, len: u8) -> u64 {
        load_le(self.window(addr, len as usize), len)
    }

    /// Store the low `len` bytes of `val`, little-endian.
    #[inline]
    pub fn store(&mut self, addr: Addr, len: u8, val: u64) {
        store_le(self.window(addr, len as usize), len, val);
    }
}

/// Read the `len`-byte (1/2/4/8) little-endian word at the start of `bytes`,
/// zero-extended; every platform's data plane moves words through this
/// pair. The 8- and 4-byte cases are fixed-width on purpose: a
/// variable-length `copy_from_slice` cost LU's one-word bulk runs (column
/// reads, stride over a line: 16 of its 18 runs per inner product) several
/// percent of host time.
#[inline]
pub fn load_le(bytes: &[u8], len: u8) -> u64 {
    debug_assert!(matches!(len, 1 | 2 | 4 | 8));
    match len {
        8 => u64::from_le_bytes(*bytes.first_chunk().expect("8-byte word in bounds")),
        4 => u32::from_le_bytes(*bytes.first_chunk().expect("4-byte word in bounds")) as u64,
        _ => {
            let mut w = [0u8; 8];
            w[..len as usize].copy_from_slice(&bytes[..len as usize]);
            u64::from_le_bytes(w)
        }
    }
}

/// Write the low `len` bytes of `val`, little-endian, at the start of
/// `bytes` (the store-side twin of [`load_le`]).
#[inline]
pub fn store_le(bytes: &mut [u8], len: u8, val: u64) {
    debug_assert!(matches!(len, 1 | 2 | 4 | 8));
    match len {
        8 => *bytes.first_chunk_mut().expect("8-byte word in bounds") = val.to_le_bytes(),
        4 => *bytes.first_chunk_mut().expect("4-byte word in bounds") = (val as u32).to_le_bytes(),
        _ => bytes[..len as usize].copy_from_slice(&val.to_le_bytes()[..len as usize]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_then_load_round_trips() {
        let mut m = FlatMem::new();
        m.store(HEAP_BASE + 16, 8, f64::to_bits(3.5));
        assert_eq!(f64::from_bits(m.load(HEAP_BASE + 16, 8)), 3.5);
        m.store(HEAP_BASE + 3, 1, 0xab);
        assert_eq!(m.load(HEAP_BASE + 3, 1), 0xab);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut m = FlatMem::new();
        assert_eq!(m.load(HEAP_BASE + 1_000_000, 8), 0);
    }

    #[test]
    fn partial_widths_do_not_clobber_neighbours() {
        let mut m = FlatMem::new();
        m.store(HEAP_BASE, 8, u64::MAX);
        m.store(HEAP_BASE + 2, 2, 0);
        assert_eq!(m.load(HEAP_BASE, 8), 0xffff_ffff_0000_ffff);
    }

    #[test]
    #[should_panic]
    fn below_heap_base_panics() {
        let mut m = FlatMem::new();
        m.load(0x10, 8);
    }
}
