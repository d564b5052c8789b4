(** LRU cache of parsed designs, keyed by a digest of the design's
    bytes.

    A hit hands back the design's parsed circuit and, once a job has
    run the [--analyze] pre-flight on it, the proved invariants — the
    two things that pay to compute once per design. No BDD state lives
    here: every job runs on a fresh session ({!Rfn_core.Rfn.prepare})
    seeded with the cached analysis. A miss parses the design and
    evicts the least-recently used entry beyond [max_designs].

    Counted as [serve.designs_parsed], [serve.designs_reused] and
    [serve.designs_evicted]. *)

type design = {
  circuit : Rfn_circuit.Circuit.t;
  mutable analysis : Rfn_analysis.Analysis.t option;
      (** proved invariants, filled in by the first [analyze] job *)
}

type t

val create : ?max_designs:int -> unit -> t
(** Default [max_designs = 4], clamped to at least 1. *)

val acquire :
  t -> digest:string -> parse:(unit -> Rfn_circuit.Circuit.t) -> design
(** The design for [digest], parsed with [parse] when absent (an
    exception from [parse] leaves the cache unchanged). Marks the
    entry most-recently used either way. *)

val drop : t -> digest:string -> unit
(** Remove a digest's entry outright — the server calls this when a
    job died mid-run on an uncaught exception. Counted as an eviction;
    no-op when absent. *)

val digests : t -> string list
(** Resident digests, most-recently used first — what the eviction
    tests assert on. *)
