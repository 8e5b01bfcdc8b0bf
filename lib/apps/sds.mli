(** Simple Dynamic Strings (Redis's string representation).

    Layout in disaggregated memory:
    {[ [len:u32][alloc:u32][bytes...][NUL] ]}
    The header-then-data shape is what the paper's app-aware GET
    prefetcher exploits: a subpage fetch of the first 8 bytes yields
    the length, which tells the prefetcher exactly how many pages the
    value spans (§6.3). *)

val header_size : int
(** 8 bytes. *)

val create : Memif.t -> bytes -> int64
(** Allocate and fill; returns the SDS base address. *)

val len : Memif.t -> int64 -> int
val data_addr : int64 -> int64
val get : Memif.t -> int64 -> bytes
(** Read the whole string (header + payload traffic) into a fresh
    buffer of exactly its length: [read_into] on an empty buffer. *)

val read_into : Memif.t -> int64 -> bytes ref -> int
(** [read_into mem base buf] reads the payload into the front of
    [!buf] and returns its length [n]; bytes of [!buf] past [n] are
    left as they were. The Memif traffic is that of {!get}: one
    [read_u32_at] for the length, then one [read_bytes]. If [!buf] is
    shorter than [n], it is first replaced (host-side, between those
    two calls) by a buffer at least twice as long. *)

val total_size : int -> int
(** Allocation footprint of a payload of the given length. *)

val free : Memif.t -> int64 -> unit
