//! Local (register) variable buffering (paper §IV-G3).
//!
//! Registers cannot be used to transfer data between threads, so MUTLS
//! assigns every live local variable an *offset* at compile time and copies
//! values through the [`LocalBuffer`] at speculation and synchronization
//! points: a [`RegisterBuffer`] is a statically sized array of tagged word
//! slots that `MUTLS_set_regvar_*` / `MUTLS_get_regvar_*` write and read by
//! offset.  If the assigned offset exceeds the array size, speculation
//! fails ([`crate::BufferError::LocalBufferFull`]).
//!
//! That register file is all a thread's local buffer holds here.  The
//! paper's other half — per-frame stack-variable records, the frame chain
//! `MUTLS_enter_point` / `MUTLS_return_point` maintain for **stack frame
//! reconstruction** (§IV-H), and the pointer map for committed stack
//! pointers — exists to rebuild, in the joining thread, the native call
//! stack a speculative thread descended into.  This reproduction has no
//! native stack to rebuild: a task is a Rust closure over the runtime's
//! context, a continuation the speculative thread could not fork for
//! want of a CPU is kept as a closure too (`SpecContext`'s `late_forks`),
//! and its locals travel as the closure's captures.  Nothing ever pushed
//! a frame, so the frame half is not carried.

use crate::error::BufferError;
use crate::memory::Addr;

/// Tagged value held in a register slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegisterValue {
    /// Any integer (or boolean) register value.
    Int(u64),
    /// A floating point register value.
    Float(f64),
    /// A pointer into the global or speculative stack address space.
    Ptr(Addr),
}

impl RegisterValue {
    /// Raw word representation, regardless of tag.
    pub fn raw(&self) -> u64 {
        match *self {
            RegisterValue::Int(v) => v,
            RegisterValue::Float(f) => f.to_bits(),
            RegisterValue::Ptr(a) => a,
        }
    }
}

/// Configuration of a thread's local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalBufferConfig {
    /// Register slots ("static array" size in the paper).
    pub register_slots: usize,
}

impl Default for LocalBufferConfig {
    fn default() -> Self {
        LocalBufferConfig { register_slots: 64 }
    }
}

/// The register slots of one thread.
#[derive(Debug, Clone)]
pub struct RegisterBuffer {
    slots: Vec<Option<RegisterValue>>,
}

impl RegisterBuffer {
    fn new(slots: usize) -> Self {
        RegisterBuffer {
            slots: vec![None; slots],
        }
    }

    /// Store `value` at `offset`.
    pub fn set(&mut self, offset: usize, value: RegisterValue) -> Result<(), BufferError> {
        match self.slots.get_mut(offset) {
            Some(s) => {
                *s = Some(value);
                Ok(())
            }
            None => Err(BufferError::LocalBufferFull),
        }
    }

    /// Fetch the value stored at `offset`, if any.
    pub fn get(&self, offset: usize) -> Option<RegisterValue> {
        self.slots.get(offset).copied().flatten()
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterate over the occupied slots as `(offset, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, RegisterValue)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|v| (i, v)))
    }
}

/// Per-thread local buffer: the register file fork arguments travel
/// through.
#[derive(Debug)]
pub struct LocalBuffer {
    registers: RegisterBuffer,
}

impl LocalBuffer {
    /// Create an empty local buffer.
    pub fn new(config: LocalBufferConfig) -> Self {
        LocalBuffer {
            registers: RegisterBuffer::new(config.register_slots),
        }
    }

    /// The register slots (what a fork copies to the child).
    pub fn registers(&self) -> &RegisterBuffer {
        &self.registers
    }

    /// Store a register variable (`MUTLS_set_regvar_*`).
    pub fn set_regvar(&mut self, offset: usize, value: RegisterValue) -> Result<(), BufferError> {
        self.registers.set(offset, value)
    }

    /// Fetch a register variable (`MUTLS_get_regvar_*`).
    pub fn get_regvar(&self, offset: usize) -> Option<RegisterValue> {
        self.registers.get(offset)
    }

    /// Empty every slot in place.  Allocation-free: a buffer recycled
    /// across forks keeps its register array.
    pub fn clear(&mut self) {
        self.registers.slots.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lb() -> LocalBuffer {
        LocalBuffer::new(LocalBufferConfig { register_slots: 4 })
    }

    #[test]
    fn regvar_roundtrip_and_overflow() {
        let mut b = lb();
        b.set_regvar(0, RegisterValue::Int(7)).unwrap();
        b.set_regvar(3, RegisterValue::Float(2.5)).unwrap();
        assert_eq!(b.get_regvar(0), Some(RegisterValue::Int(7)));
        assert_eq!(b.get_regvar(3), Some(RegisterValue::Float(2.5)));
        assert_eq!(b.get_regvar(1), None);
        assert_eq!(
            b.set_regvar(4, RegisterValue::Int(1)).unwrap_err(),
            BufferError::LocalBufferFull
        );
        assert_eq!(
            b.registers().iter().collect::<Vec<_>>(),
            vec![(0, RegisterValue::Int(7)), (3, RegisterValue::Float(2.5))]
        );
    }

    #[test]
    fn clear_empties_the_registers_in_place() {
        let mut b = lb();
        b.set_regvar(1, RegisterValue::Int(4)).unwrap();
        let registers = b.registers().slots.as_ptr();
        b.clear();
        assert_eq!(b.registers().occupied(), 0);
        assert_eq!(b.get_regvar(1), None);
        // Reset in place, not rebuilt.
        assert_eq!(b.registers().slots.as_ptr(), registers);
    }

    #[test]
    fn register_value_raw_encoding() {
        assert_eq!(RegisterValue::Int(5).raw(), 5);
        assert_eq!(RegisterValue::Ptr(0x10).raw(), 0x10);
        assert_eq!(RegisterValue::Float(1.5).raw(), 1.5f64.to_bits());
    }
}
