module Json = Rfn_obs.Json

type design = File of string | Netlist of string

type budget = {
  max_iterations : int option;
  node_limit : int option;
  mc_max_steps : int option;
  max_seconds : float option;
  analyze : bool option;
}

let no_budget =
  {
    max_iterations = None;
    node_limit = None;
    mc_max_steps = None;
    max_seconds = None;
    analyze = None;
  }

type submit = {
  id : string;
  design : design;
  property : string;
  budget : budget;
}

type request =
  | Submit of submit
  | Status of string option
  | Cancel of string
  | Shutdown

let request_of_json j =
  let ( let* ) = Result.bind in
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  let flt name = Option.bind (Json.member name j) Json.to_float in
  let boolean name = Option.bind (Json.member name j) Json.to_bool in
  let required name =
    match str name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or ill-typed %S field" name)
  in
  match str "op" with
  | None -> Error "missing \"op\" field"
  | Some "shutdown" -> Ok Shutdown
  | Some "status" -> Ok (Status (str "id"))
  | Some "cancel" ->
    let* id = required "id" in
    Ok (Cancel id)
  | Some "submit" ->
    let* id = required "id" in
    let* property = required "property" in
    let* design =
      match (str "design", str "netlist") with
      | Some f, None -> Ok (File f)
      | None, Some n -> Ok (Netlist n)
      | Some _, Some _ -> Error "both \"design\" and \"netlist\" given"
      | None, None -> Error "one of \"design\" or \"netlist\" is required"
    in
    let* () =
      if Option.is_none (Json.member "engines" j) then Ok ()
      else
        Error
          "\"engines\" is no longer a submit field: concretization always \
           runs guided sequential ATPG"
    in
    Ok
      (Submit
         {
           id;
           design;
           property;
           budget =
             {
               max_iterations = int "max_iterations";
               node_limit = int "node_limit";
               mc_max_steps = int "mc_max_steps";
               max_seconds = flt "max_seconds";
               analyze = boolean "analyze";
             };
         })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_line line =
  match Json.of_string line with
  | exception Failure msg -> Error ("malformed JSON: " ^ msg)
  | j -> request_of_json j

let submit_to_json s =
  let base = [ ("op", Json.Str "submit"); ("id", Json.Str s.id) ] in
  let design =
    match s.design with
    | File f -> ("design", Json.Str f)
    | Netlist n -> ("netlist", Json.Str n)
  in
  let opt name enc = function None -> [] | Some v -> [ (name, enc v) ] in
  Json.Obj
    (base
    @ [ design; ("property", Json.Str s.property) ]
    @ opt "max_iterations" (fun n -> Json.Int n) s.budget.max_iterations
    @ opt "node_limit" (fun n -> Json.Int n) s.budget.node_limit
    @ opt "mc_max_steps" (fun n -> Json.Int n) s.budget.mc_max_steps
    @ opt "max_seconds" (fun f -> Json.Float f) s.budget.max_seconds
    @ opt "analyze" (fun b -> Json.Bool b) s.budget.analyze)
