(** The CPU front end shared by the paging kernels.

    Applications see the same CPU/MMU interface under DiLOS and under
    Fastswap; only the page fault path differs (unified page table vs.
    swap cache, §4.2). This module is that common interface: per-core
    software TLBs caching each page's slab offset, the batched CPU-time
    accumulator ([charge]/[flush]/[compute]), TLB shootdown, the
    slow-path MMU walk with exception delivery, and every typed
    accessor. A kernel plugs in two handlers with {!set_handlers}: its
    page fault handler and its store hook.

    The TLB hit path (probe, charge, re-validate, slab load) runs
    entirely inside this module and allocates nothing; only misses and
    the first store through a read-loaded translation call back into
    the kernel. *)

exception Segmentation_fault of int64
(** An access to an address no mapping covers. *)

exception Page_lost of int64
(** A demand fetch for this address failed
    {!Params.fault_refetch_max} consecutive times — e.g. every replica
    of the page's shard is dead. Carries the faulting page's base
    address. Raised by either paging kernel instead of blocking the
    faulting core forever. *)

type t

type core
(** One core's TLB and pending-time accumulator. *)

val create :
  eng:Sim.Engine.t ->
  pt:Vmem.Page_table.t ->
  frames:Vmem.Frame.t ->
  cores:int ->
  t
(** [cores] cores translating through [pt] into [frames]' slab. Each
    core registers a ["cpu<i>"] trace track. The handlers must be set
    before the first access. *)

val set_handlers :
  t ->
  fault:(core -> int -> unit) ->
  store:(core -> int -> bool -> unit) ->
  unit
(** [fault core vpn] resolves a translation fault on [vpn] (the
    exception-delivery cost has already been paid); the walk retries
    afterwards. [store core vpn hit] runs whenever a store sets the
    PTE's dirty bit, possibly redundantly: after every slow-path write
    walk ([hit = false]) and on the first store through a read-loaded
    TLB entry ([hit = true]). It may {!charge} time. *)

val core_id : core -> int
val track : core -> int
(** The core's trace track. *)

val charge : t -> core -> int -> unit
(** Add [ns] to the core's pending time, flushing it to the engine once
    it reaches 10 us. May sleep the calling fiber. *)

val invalidate : t -> int -> unit
(** Shoot the page down from every core's TLB. *)

(** {1 Data path (call from a fiber)} *)

val read_u8 : t -> core:int -> int64 -> int
val read_u16 : t -> core:int -> int64 -> int
val read_u32 : t -> core:int -> int64 -> int
val read_u64 : t -> core:int -> int64 -> int64
val write_u8 : t -> core:int -> int64 -> int -> unit
val write_u16 : t -> core:int -> int64 -> int -> unit
val write_u32 : t -> core:int -> int64 -> int -> unit
val write_u64 : t -> core:int -> int64 -> int64 -> unit
val read_bytes : t -> core:int -> int64 -> bytes -> int -> int -> unit
val write_bytes : t -> core:int -> int64 -> bytes -> int -> int -> unit

(** [_at] variants take a base address plus an [int] byte offset and
    split the effective address with int arithmetic only — app hot
    loops use them to walk an arena without boxing an [Int64] per
    access. Semantics (including page-straddle checks and simulated
    charges) are identical to the plain accessors at
    [Int64.add base (Int64.of_int off)]. *)

val read_u8_at : t -> core:int -> int64 -> int -> int
val read_u16_at : t -> core:int -> int64 -> int -> int
val read_u32_at : t -> core:int -> int64 -> int -> int
val read_u64_at : t -> core:int -> int64 -> int -> int64
val write_u8_at : t -> core:int -> int64 -> int -> int -> unit
val write_u16_at : t -> core:int -> int64 -> int -> int -> unit
val write_u32_at : t -> core:int -> int64 -> int -> int -> unit
val write_u64_at : t -> core:int -> int64 -> int -> int64 -> unit

val compute : t -> core:int -> int -> unit
(** Charge [ns] of CPU work to the core (batched; see {!flush}). *)

val flush : t -> core:int -> unit
(** Synchronize the core's accumulated fast-path time with the engine
    clock. Called automatically on faults and every ~10 us of
    accumulated work. *)

val touch : t -> core:int -> int64 -> unit
(** Fault the page containing the address in (a load without reading
    data). *)
