(** The long-running verification service.

    One process, one thread: requests are read as JSON Lines from a
    file descriptor, jobs accumulate in a queue, and whenever the input
    is quiet (nothing buffered and nothing readable right now) the
    server runs the oldest queued job and writes its [result] line.
    Each design is parsed once and cached with its proved invariants
    ({!Pool}); each job runs on a fresh session over that cached
    design, dropped after the job. Because draining the readable input
    always precedes running a job, a piped batch is fully enqueued
    before the first verification starts — a [cancel] later in the
    batch still beats its job — while an interactive client gets an
    answer after every line.

    Per job, the server scopes telemetry ({!Rfn_obs.Telemetry.scope})
    so the [counters] object of each result line holds only that job's
    deltas, stamps every telemetry event with the job id
    ([Telemetry.set_context]), wires the job id into the checkpoint key
    and runs {!Rfn_core.Rfn.verify_in_session} under the job's budget.
    End of input (EOF) and the [shutdown] op behave identically: the
    queue is drained — every remaining job still runs and reports —
    then a final [bye] line is written.

    Response lines:
    {v
    {"ev":"ack","id":"j1"}
    {"ev":"error","message":"...","id":"j1"}      (id when known)
    {"ev":"status","jobs":[{"id":"j1","state":"queued"},...]}
    {"ev":"result","id":"j1","verdict":"proved","seconds":0.12,
     "iterations":3,"final_regs":7,"session":{"digest":"..."},
     "counters":{"session.cones_reused":11,...},"provenance":[...]}
      — plus "trace" (falsified) or "failure" (aborted)
    {"ev":"result","id":"j1","verdict":"cancelled"}
    {"ev":"bye","jobs_completed":2}
    v}

    Counted as [serve.jobs_submitted], [serve.jobs_completed],
    [serve.jobs_cancelled], plus the {!Pool} counters. The [digest] is
    the MD5 of the submitted design bytes (a [design] path is read
    afresh on every submit), so an edited file is a new design. *)

val run :
  ?max_designs:int ->
  ?config:Rfn_core.Rfn.config ->
  ?checkpoint_dir:string ->
  input:Unix.file_descr ->
  output:out_channel ->
  unit ->
  int
(** Serve [input] until EOF or [shutdown], writing responses (flushed
    per line) to [output]; returns the number of jobs that produced a
    verdict line. [config] is the base every job's budget overrides
    ({!Rfn_core.Rfn.default_config} by default); [max_designs] caps the
    parsed-design cache ({!Pool.create}). The config's [checkpoint]
    and [resume] fields are ignored — with [checkpoint_dir] set, each job
    checkpoints to [dir/<digest>-<property>-<id>.json] keyed by its
    job id, and resumes it if present (crash-safe server restarts). *)

val serve_socket :
  ?max_designs:int ->
  ?config:Rfn_core.Rfn.config ->
  ?checkpoint_dir:string ->
  path:string ->
  unit ->
  int
(** Bind a Unix-domain socket at [path] (unlinking a stale one) and
    accept connections sequentially, serving each with {!run}; the
    design cache persists across connections, so a reconnecting client
    finds its designs parsed. A [shutdown] op (not a bare disconnect)
    stops the accept loop; returns total jobs completed. *)
