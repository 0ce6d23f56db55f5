(** Greedy counterexample minimization.

    Given a failing instance and a predicate that re-runs the oracle,
    repeatedly try the structural edits of {!Instance} — drop a sink,
    drop a library buffer, halve every wire, halve one wire — keeping
    the first edit that still fails, until no edit preserves the failure
    (or the evaluation budget runs out). Every edit strictly shrinks the
    instance ({!Instance.size} or total wirelength, floored at
    {!Instance} minimum length), so the loop terminates. *)

type result = {
  instance : Instance.t;  (** the minimized failing instance *)
  message : string;  (** failure message of the minimized instance *)
  steps : int;  (** accepted edits *)
  evals : int;  (** oracle evaluations spent *)
}

val shrink :
  fails:(Instance.t -> string option) -> Instance.t -> message:string -> result
(** [fails] returns [Some message] when the instance still exhibits the
    failure (typically [Diff.run] adapted). At most 300 oracle calls;
    the original instance and message are returned unchanged if
    nothing smaller still fails. *)
