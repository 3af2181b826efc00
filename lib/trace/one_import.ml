let fail_line n msg = failwith (Printf.sprintf "One_import: line %d: %s" n msg)

let of_string ?(bandwidth_bytes_per_sec = 250_000) s =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let names = ref [] in
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids name id;
        names := (name, id) :: !names;
        id
  in
  (* Open intervals keyed by unordered pair. *)
  let open_since : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let contacts = ref [] in
  let last_time = ref 0.0 in
  let close ~a ~b ~from_time ~until =
    let span = Float.max 0.0 (until -. from_time) in
    let bytes = int_of_float (span *. float_of_int bandwidth_bytes_per_sec) in
    contacts := Contact.make ~time:from_time ~a ~b ~bytes :: !contacts
  in
  List.iteri
    (fun idx line ->
      let n = idx + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ time; "CONN"; h1; h2; state ] -> (
            match float_of_string_opt time with
            | None -> fail_line n "bad timestamp"
            | Some time when not (Float.is_finite time) ->
                fail_line n "non-finite timestamp"
            | Some time ->
                if time < !last_time then fail_line n "events out of order";
                last_time := time;
                let a = id_of h1 and b = id_of h2 in
                if a = b then fail_line n "self-connection";
                let key = (min a b, max a b) in
                (match String.lowercase_ascii state with
                | "up" ->
                    if Hashtbl.mem open_since key then
                      fail_line n "connection already up"
                    else Hashtbl.replace open_since key time
                | "down" -> (
                    match Hashtbl.find_opt open_since key with
                    | Some from_time ->
                        Hashtbl.remove open_since key;
                        close ~a ~b ~from_time ~until:time
                    | None -> fail_line n "down without matching up")
                | other -> fail_line n (Printf.sprintf "unknown state %S" other)))
        | _ -> fail_line n (Printf.sprintf "unrecognized record %S" line)
      end)
    (String.split_on_char '\n' s);
  (* Close dangling intervals at the last observed event. *)
  Hashtbl.iter
    (fun (a, b) from_time -> close ~a ~b ~from_time ~until:!last_time)
    open_since;
  let num_nodes = max 1 (Hashtbl.length ids) in
  let duration = Float.max 1.0 (!last_time +. 1.0) in
  let trace = Trace.create ~num_nodes ~duration !contacts in
  (trace, List.rev !names)

let load ?bandwidth_bytes_per_sec path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string ?bandwidth_bytes_per_sec (really_input_string ic len))
