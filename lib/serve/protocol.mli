(** Wire protocol of the verification server: JSON Lines, one message
    per line, over stdio or a Unix socket.

    Requests (client → server):
    {v
    {"op":"submit","id":"j1","design":"fifo.bench","property":"psh_hf"}
    {"op":"submit","id":"j2","netlist":"INPUT(a)\n...","property":"bad",
     "max_iterations":32,"node_limit":500000,"mc_max_steps":200,
     "max_seconds":60.0}
    {"op":"status"}            {"op":"status","id":"j1"}
    {"op":"cancel","id":"j1"}
    {"op":"shutdown"}
    v}

    Responses (server → client) are built by the server; this module
    only fixes the request side and the shared budget record. Every
    submit is answered by an [ack] (or [error]) line immediately and by
    exactly one [result] line later; [shutdown] drains the queue — the
    remaining jobs still run and report — then answers [bye]. *)

type design =
  | File of string
      (** path to a [.bench] or AIGER netlist, read afresh on every
          submit *)
  | Netlist of string  (** inline netlist text *)

type budget = {
  max_iterations : int option;
  node_limit : int option;
  mc_max_steps : int option;
  max_seconds : float option;
  analyze : bool option;
      (** retired: accepted on the wire and ignored. Proven invariants
          no longer feed the loop; [rfn analyze] runs the inference as
          a standalone tool. Kept so that older clients' batches still
          parse *)
}
(** Per-job overrides of the server's base config; [None] fields
    inherit. *)

val no_budget : budget

type submit = {
  id : string;
  design : design;
  property : string;
  budget : budget;
}

type request =
  | Submit of submit
  | Status of string option  (** all jobs, or one *)
  | Cancel of string
  | Shutdown

val request_of_json : Rfn_obs.Json.t -> (request, string) result
(** Total: any shape violation (missing op, unknown op, missing id,
    both or neither of design/netlist, a retired ["engines"] field) is an
    [Error] with a message the server echoes back on an [error] line. *)

val request_of_line : string -> (request, string) result
(** [request_of_json] after parsing; malformed JSON is an [Error]. *)

val submit_to_json : submit -> Rfn_obs.Json.t
(** Render a submit request — the client-side encoder the bench batch
    driver and the tests use to feed a server. *)
