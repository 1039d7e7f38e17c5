//! Local (register and stack) variable buffering (paper §IV-G3).
//!
//! Registers cannot be used to transfer data between threads, so MUTLS
//! assigns every live local variable an *offset* at compile time and copies
//! values through the [`LocalBuffer`] at speculation and synchronization
//! points:
//!
//! * [`RegisterBuffer`] — a statically sized array of tagged word slots;
//!   `MUTLS_set_regvar_*` / `MUTLS_get_regvar_*` read and write it by
//!   offset.  If the assigned offset exceeds the array size, speculation
//!   fails ([`crate::BufferError::LocalBufferFull`]).
//! * Stack buffering — per-frame records of stack variables (offset,
//!   address, data) copied at fork/join.
//! * Frame tracking for **stack frame reconstruction** (paper §IV-H):
//!   `MUTLS_enter_point` pushes a frame as the speculative thread descends
//!   into a call, `MUTLS_return_point` pops it, and at join the parent
//!   replays the recorded call chain, restoring frame data as it descends.
//! * The **pointer mapping** mechanism: stack pointers committed from a
//!   speculative thread are remapped to the corresponding non-speculative
//!   addresses; values that are neither global nor mappable barrier the
//!   thread (see `MUTLS_ptr_int_cast` handling in the runtime).

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
    /// Register slots per frame ("static array" size in the paper).
    pub register_slots: usize,
    /// Maximum stack-variable records per frame.
    pub stack_slots: usize,
    /// Maximum call-chain depth a speculative thread may descend into.
    pub max_frames: usize,
}

impl Default for LocalBufferConfig {
    fn default() -> Self {
        LocalBufferConfig {
            register_slots: 64,
            stack_slots: 64,
            max_frames: 128,
        }
    }
}

/// A stack-variable record: the variable's assigned offset, its address in
/// the owning thread's stack space and its copied data.
#[derive(Debug, Clone, PartialEq)]
pub struct StackVarRecord {
    /// Offset assigned by the speculator pass.
    pub offset: usize,
    /// Address of the variable in the owning thread's stack space.
    pub addr: Addr,
    /// Copied contents, one word per element.
    pub data: Vec<u64>,
}

/// Register slots of one frame.
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

/// One stack frame recorded by the speculative thread as it descends into
/// nested calls.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Identifier of the function this frame belongs to.
    pub function: u32,
    /// Synchronization counter of the call site, used by the parent to jump
    /// to the correct block when reconstructing the frame.
    pub sync_counter: u32,
    /// Register slots of this frame.
    pub registers: RegisterBuffer,
    /// Stack variables copied for this frame.
    pub stack_vars: Vec<StackVarRecord>,
}

/// Per-thread local buffer: frame stack, pointer map and stack address
/// range.
#[derive(Debug)]
pub struct LocalBuffer {
    config: LocalBufferConfig,
    frames: Vec<Frame>,
    /// Mapping from speculative-stack addresses to the corresponding
    /// non-speculative addresses, built during `set/get_stackvar` calls.
    ptr_map: Vec<(Addr, Addr, u64)>,
    /// Registered stack address range of the owning thread.
    stack_range: Option<(Addr, Addr)>,
}

impl LocalBuffer {
    /// Create an empty local buffer with one bottom frame.
    pub fn new(config: LocalBufferConfig) -> Self {
        let mut lb = LocalBuffer {
            config,
            frames: Vec::new(),
            ptr_map: Vec::new(),
            stack_range: None,
        };
        lb.frames.push(Frame {
            function: 0,
            sync_counter: 0,
            registers: RegisterBuffer::new(config.register_slots),
            stack_vars: Vec::new(),
        });
        lb
    }

    /// Register the owning thread's stack address range (between its base
    /// and current stack pointers).
    pub fn register_stack_space(&mut self, base: Addr, top: Addr) {
        self.stack_range = Some((base.min(top), base.max(top)));
    }

    /// True if `addr` falls inside the registered stack range.
    pub fn in_stack_space(&self, addr: Addr) -> bool {
        match self.stack_range {
            Some((lo, hi)) => addr >= lo && addr < hi,
            None => false,
        }
    }

    /// Current call-chain depth (≥ 1; the bottom frame is always present).
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Enter a nested function call: push a frame (paper: `MUTLS_enter_point`).
    pub fn push_frame(&mut self, function: u32, sync_counter: u32) -> Result<(), BufferError> {
        if self.frames.len() >= self.config.max_frames {
            return Err(BufferError::LocalBufferFull);
        }
        self.frames.push(Frame {
            function,
            sync_counter,
            registers: RegisterBuffer::new(self.config.register_slots),
            stack_vars: Vec::new(),
        });
        Ok(())
    }

    /// Return from a nested call: pop a frame (paper: `MUTLS_return_point`).
    ///
    /// Returns `false` when the thread is at its entry frame, in which case
    /// the runtime must terminate speculation instead of returning.
    pub fn pop_frame(&mut self) -> bool {
        if self.frames.len() > 1 {
            self.frames.pop();
            true
        } else {
            false
        }
    }

    /// Access the current (innermost) frame.
    pub fn current_frame(&self) -> &Frame {
        self.frames.last().expect("bottom frame always present")
    }

    fn current_frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("bottom frame always present")
    }

    /// Access the recorded frame chain from outermost to innermost
    /// (used by stack-frame reconstruction at join time).
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Store a register variable of the current frame (`MUTLS_set_regvar_*`).
    pub fn set_regvar(&mut self, offset: usize, value: RegisterValue) -> Result<(), BufferError> {
        self.current_frame_mut().registers.set(offset, value)
    }

    /// Fetch a register variable of the current frame (`MUTLS_get_regvar_*`).
    pub fn get_regvar(&self, offset: usize) -> Option<RegisterValue> {
        self.current_frame().registers.get(offset)
    }

    /// Copy a stack variable into the buffer (`MUTLS_set_stackvar_*`),
    /// recording its address so pointers into it can later be mapped.
    pub fn set_stackvar(
        &mut self,
        offset: usize,
        addr: Addr,
        data: Vec<u64>,
    ) -> Result<(), BufferError> {
        let limit = self.config.stack_slots;
        let frame = self.current_frame_mut();
        if let Some(existing) = frame.stack_vars.iter_mut().find(|r| r.offset == offset) {
            existing.addr = addr;
            existing.data = data;
        } else {
            if frame.stack_vars.len() >= limit {
                return Err(BufferError::LocalBufferFull);
            }
            frame.stack_vars.push(StackVarRecord { offset, addr, data });
        }
        Ok(())
    }

    /// Fetch a stack variable of the current frame (`MUTLS_get_stackvar_*`).
    pub fn get_stackvar(&self, offset: usize) -> Option<&StackVarRecord> {
        self.current_frame()
            .stack_vars
            .iter()
            .find(|r| r.offset == offset)
    }

    /// Record that the speculative-stack variable at `spec_addr` (spanning
    /// `len` bytes) corresponds to the non-speculative variable at
    /// `nonspec_addr`; used to translate committed stack pointers.
    pub fn record_ptr_mapping(&mut self, spec_addr: Addr, nonspec_addr: Addr, len: u64) {
        self.ptr_map.push((spec_addr, nonspec_addr, len));
    }

    /// Translate a pointer value produced by the speculative thread.
    ///
    /// * Pointers outside the speculative stack range are returned
    ///   unchanged (they refer to shared global data).
    /// * Pointers inside the speculative stack range are mapped to the
    ///   corresponding non-speculative variable when a mapping exists.
    /// * Unmappable speculative-stack pointers return `None`; the runtime
    ///   must roll the thread back (the pointer would dangle after commit).
    pub fn map_pointer(&self, ptr: Addr) -> Option<Addr> {
        if !self.in_stack_space(ptr) {
            return Some(ptr);
        }
        for &(spec, nonspec, len) in &self.ptr_map {
            if ptr >= spec && ptr < spec + len {
                return Some(nonspec + (ptr - spec));
            }
        }
        None
    }

    /// Drop all frames except the bottom one, reset that frame in place
    /// and clear mappings.  Allocation-free: a buffer recycled across
    /// forks keeps its bottom frame's register array.
    pub fn clear(&mut self) {
        self.frames.truncate(1);
        let bottom = self.current_frame_mut();
        bottom.function = 0;
        bottom.sync_counter = 0;
        bottom.registers.slots.fill(None);
        bottom.stack_vars.clear();
        self.ptr_map.clear();
        self.stack_range = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lb() -> LocalBuffer {
        LocalBuffer::new(LocalBufferConfig {
            register_slots: 4,
            stack_slots: 2,
            max_frames: 3,
        })
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
    }

    #[test]
    fn frames_isolate_registers() {
        let mut b = lb();
        b.set_regvar(0, RegisterValue::Int(1)).unwrap();
        b.push_frame(9, 2).unwrap();
        assert_eq!(b.get_regvar(0), None);
        b.set_regvar(0, RegisterValue::Int(2)).unwrap();
        assert!(b.pop_frame());
        assert_eq!(b.get_regvar(0), Some(RegisterValue::Int(1)));
    }

    #[test]
    fn bottom_frame_cannot_be_popped() {
        let mut b = lb();
        assert!(!b.pop_frame());
        assert_eq!(b.frame_count(), 1);
    }

    #[test]
    fn frame_depth_is_bounded() {
        let mut b = lb();
        b.push_frame(1, 1).unwrap();
        b.push_frame(2, 2).unwrap();
        assert_eq!(
            b.push_frame(3, 3).unwrap_err(),
            BufferError::LocalBufferFull
        );
        assert_eq!(b.frame_count(), 3);
    }

    #[test]
    fn frame_chain_records_call_sites() {
        let mut b = lb();
        b.push_frame(7, 4).unwrap();
        let frames = b.frames();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].function, 7);
        assert_eq!(frames[1].sync_counter, 4);
    }

    #[test]
    fn stackvar_roundtrip_update_and_overflow() {
        let mut b = lb();
        b.set_stackvar(0, 0x100, vec![1, 2]).unwrap();
        b.set_stackvar(1, 0x200, vec![3]).unwrap();
        assert_eq!(b.get_stackvar(0).unwrap().data, vec![1, 2]);
        // Updating an existing offset does not consume a new slot.
        b.set_stackvar(0, 0x100, vec![9]).unwrap();
        assert_eq!(b.get_stackvar(0).unwrap().data, vec![9]);
        assert_eq!(
            b.set_stackvar(2, 0x300, vec![5]).unwrap_err(),
            BufferError::LocalBufferFull
        );
    }

    #[test]
    fn pointer_mapping_translates_speculative_stack_pointers() {
        let mut b = lb();
        b.register_stack_space(0x8000, 0x9000);
        b.record_ptr_mapping(0x8100, 0x4100, 0x40);
        // Global pointer: unchanged.
        assert_eq!(b.map_pointer(0x1234), Some(0x1234));
        // Mapped speculative-stack pointer: translated with offset.
        assert_eq!(b.map_pointer(0x8110), Some(0x4110));
        // Unmapped speculative-stack pointer: rollback required.
        assert_eq!(b.map_pointer(0x8F00), None);
    }

    #[test]
    fn stack_space_membership() {
        let mut b = lb();
        assert!(!b.in_stack_space(0x8000));
        b.register_stack_space(0x9000, 0x8000); // order-insensitive
        assert!(b.in_stack_space(0x8000));
        assert!(b.in_stack_space(0x8FFF));
        assert!(!b.in_stack_space(0x9000));
    }

    #[test]
    fn clear_resets_to_single_frame() {
        let mut b = lb();
        b.set_regvar(1, RegisterValue::Int(4)).unwrap();
        b.set_stackvar(0, 0x100, vec![1]).unwrap();
        let bottom_registers = b.current_frame().registers.slots.as_ptr();
        b.push_frame(1, 1).unwrap();
        b.set_regvar(0, RegisterValue::Int(5)).unwrap();
        b.register_stack_space(0, 100);
        b.clear();
        assert_eq!(b.frame_count(), 1);
        assert_eq!(b.current_frame().registers.occupied(), 0);
        assert!(b.get_stackvar(0).is_none());
        assert!(!b.in_stack_space(10));
        // The bottom frame was reset in place, not rebuilt.
        assert_eq!(b.current_frame().registers.slots.as_ptr(), bottom_registers);
    }

    #[test]
    fn register_value_raw_encoding() {
        assert_eq!(RegisterValue::Int(5).raw(), 5);
        assert_eq!(RegisterValue::Ptr(0x10).raw(), 0x10);
        assert_eq!(RegisterValue::Float(1.5).raw(), 1.5f64.to_bits());
    }
}
