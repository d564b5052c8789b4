(** Chrome trace-event writer (the JSON "array format" loadable by
    Perfetto / chrome://tracing / catapult).

    One writer owns one output file. Events are appended as they
    happen; {!close} terminates the array. Timestamps are given in
    seconds relative to the writer's epoch (negative values are clamped
    to zero) and written in microseconds, as the format requires. All
    events carry [pid = 1] and [tid = 1]: the engines are
    single-threaded, so nesting is reconstructed from containment.

    The array format tolerates a missing trailing "]" (so a crashed
    run's trace still loads), but {!close} always writes it — and is
    idempotent, safe from both [Fun.protect] finalisers and [at_exit]. *)

type t

val create : string -> t
(** Open [file] and write the array opening plus a process-name
    metadata record. @raise Sys_error when the file cannot be opened. *)

val complete :
  t ->
  name:string ->
  ?cat:string ->
  ts:float ->
  dur:float ->
  ?args:(string * Json.t) list ->
  unit ->
  unit
(** A ["ph":"X"] complete event: a span of [dur] seconds starting [ts]
    seconds after the epoch. *)

val instant :
  t ->
  name:string ->
  ts:float ->
  ?args:(string * Json.t) list ->
  unit ->
  unit
(** A ["ph":"i"] thread-scoped instant event. *)

val counter : t -> name:string -> ts:float -> (string * float) list -> unit
(** A ["ph":"C"] counter event: each [(series, value)] pair becomes a
    stacked series under the counter track [name]. *)

val close : t -> unit
(** Write the closing "]" and close the channel. Idempotent; later
    events on a closed writer are dropped silently. *)
