(** Front-end dispatch by file extension: [.aig] is binary AIGER,
    [.aag] ascii AIGER, everything else ISCAS `.bench`. *)

val load : string -> Circuit.t
(** Parse the file at [path] with the front-end its extension names.
    Raises [Failure] with a line-numbered message on syntax errors and
    [Sys_error] on I/O errors, like the underlying readers. *)

val save : ?bads:string list -> string -> Circuit.t -> unit
(** Write [c] to [path] in the format its extension names. [bads] is
    forwarded to {!Aiger_io.write_file} and ignored for `.bench`. *)
