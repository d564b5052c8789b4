(** LRU cache of parsed designs, keyed by a digest of the design's
    bytes.

    A hit hands back the design's parsed circuit, the one thing that
    pays to compute once per design. No BDD state lives here: every job
    runs on a fresh session ({!Rfn_core.Rfn.prepare}). A miss parses the
    design and evicts the least-recently used entry beyond
    [max_designs].

    Counted as [serve.designs_parsed], [serve.designs_reused] and
    [serve.designs_evicted]. *)

type t

val create : ?max_designs:int -> unit -> t
(** Default [max_designs = 4], clamped to at least 1. *)

val acquire :
  t ->
  digest:string ->
  parse:(unit -> Rfn_circuit.Circuit.t) ->
  Rfn_circuit.Circuit.t
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
