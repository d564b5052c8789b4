(** JSON encodings for the circuit-level values RFN writes out: cubes
    and error traces, as carried by the server's result lines and read
    back by its clients. Kept here (not in [rfn.circuit]) so the circuit
    layer stays JSON-free, and shared by every writer and reader so both
    ends agree on one definition.

    Decoders are total: any shape violation — wrong arity, a
    contradictory cube, a trace breaking the state/input length
    invariant — yields [None]. Input is validated, never trusted. *)

val cube_to_json : Rfn_circuit.Cube.t -> Rfn_obs.Json.t
(** [[[signal, value], ...]] — pairs of signal id and polarity. *)

val cube_of_json : Rfn_obs.Json.t -> Rfn_circuit.Cube.t option

val trace_to_json : Rfn_circuit.Trace.t -> Rfn_obs.Json.t
(** [{"states": [cube, ...], "inputs": [cube, ...]}]. *)

val trace_of_json : Rfn_obs.Json.t -> Rfn_circuit.Trace.t option
