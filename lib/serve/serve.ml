module Protocol = Protocol
module Session = Session

type endpoint = Unix_path of string | Tcp_port of int

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let listener = function
  | Unix_path path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      fd
  | Tcp_port port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 16;
      fd

(* One connection: its private session plus a byte buffer for partial
   lines. [closed] marks connections torn down mid-iteration (peer hung
   up, write failed, oversized garbage) for removal after the sweep. *)
type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  session : Session.t;
  mutable closed : bool;
}

let serve ?(options = Session.default_options) ?domains ?(log = ignore) endpoint =
  let pool = Engine.Pool.create ?domains () in
  let lfd = listener endpoint in
  let conns = ref [] in
  let running = ref true in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let reply_to c (r : Session.reply) =
    (try write_all c.fd (r.Session.line ^ "\n")
     with Unix.Unix_error _ -> close_conn c);
    if r.Session.shutdown then running := false
  in
  (* Drain every complete line in the buffer; what remains is a line
     still in flight. A partial line already longer than the protocol
     cap can never become valid, so the connection is cut rather than
     letting a client stream an unbounded "line". *)
  let drain c =
    let data = Buffer.contents c.buf in
    let n = String.length data in
    let pos = ref 0 in
    (try
       while !running && not c.closed do
         match String.index_from data !pos '\n' with
         | exception Not_found -> raise Exit
         | nl ->
             let line = String.sub data !pos (nl - !pos) in
             pos := nl + 1;
             reply_to c (Session.handle_line c.session line)
       done
     with Exit -> ());
    Buffer.clear c.buf;
    if not c.closed then begin
      Buffer.add_substring c.buf data !pos (n - !pos);
      if Buffer.length c.buf > Protocol.max_line then begin
        (try
           write_all c.fd
             (Printf.sprintf "err oversized line (max %d bytes) t=0.000\n"
                Protocol.max_line)
         with Unix.Unix_error _ -> ());
        close_conn c
      end
    end
  in
  let chunk = Bytes.create 4096 in
  log (Printf.sprintf "serving (%d warm domains)" (Engine.Pool.size pool));
  while !running do
    let fds = lfd :: List.map (fun c -> c.fd) (List.filter (fun c -> not c.closed) !conns) in
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem lfd readable then begin
          let fd, _ = Unix.accept lfd in
          conns :=
            {
              fd;
              buf = Buffer.create 256;
              session = Session.create ~pool ~options ();
              closed = false;
            }
            :: !conns;
          log "client connected"
        end;
        List.iter
          (fun c ->
            if (not c.closed) && List.mem c.fd readable then
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error _ -> close_conn c
              | 0 ->
                  close_conn c;
                  log "client disconnected"
              | n ->
                  Buffer.add_subbytes c.buf chunk 0 n;
                  drain c)
          !conns;
        conns := List.filter (fun c -> not c.closed) !conns
  done;
  List.iter close_conn !conns;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match endpoint with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp_port _ -> ());
  Engine.Pool.shutdown pool;
  log "shut down"

(* {1 Client} *)

module Client = struct
  (* [chunk] is the connection's one read buffer; [buf] holds what was
     read past the last reply's LF *)
  type t = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

  let connect endpoint =
    let domain, addr =
      match endpoint with
      | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | Tcp_port port ->
          (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Unix.connect fd addr;
    { fd; buf = Buffer.create 256; chunk = Bytes.create 4096 }

  let read_line t =
    let rec line () =
      let data = Buffer.contents t.buf in
      match String.index data '\n' with
      | nl ->
          Buffer.clear t.buf;
          Buffer.add_substring t.buf data (nl + 1) (String.length data - nl - 1);
          Some (String.sub data 0 nl)
      | exception Not_found -> (
          match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
          | 0 -> None
          | n ->
              Buffer.add_subbytes t.buf t.chunk 0 n;
              line ())
    in
    line ()

  let request t line =
    write_all t.fd (line ^ "\n");
    read_line t

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let script endpoint lines =
    let t = connect endpoint in
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () ->
        List.map
          (fun line ->
            match request t line with
            | Some reply -> reply
            | None -> "err connection closed by server")
          lines)
end
