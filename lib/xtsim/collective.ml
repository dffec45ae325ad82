(* Simulated MPI all-reduce: recursive doubling with a node-major rank
   permutation so that the first log2(cores-per-node) exchange stages stay
   on-chip — the structure that equation 9 of the paper abstracts.

   In the tightly synchronized stages of a collective, the cores of a node
   contend for the node's single communication engine (NIC/Portals
   interface): all C cores reach each off-node stage simultaneously and
   their exchanges serialize, which is where equation 9's C-fold stage cost
   comes from. We model this with a per-node FIFO token held for the whole
   off-node exchange. On-chip stages contend only for the memory bus, so
   there the token is held just for the send (the two copies of the pair
   serialize, their receive processing overlaps).

   Core counts that are not powers of two are handled by skipping the
   exchanges whose partner index falls outside the grid; this matches the
   ceiling-stage-count behaviour of {!Loggp.Allreduce.time}.

   Holding the token across the blocking off-node exchange needs every
   node to be whole. When the node rectangle does not divide the grid,
   the edge nodes hold fewer cores, the node-major index mixes node
   sizes, and one node's cores meet cores of different nodes in the same
   stage; ranks then reach the engines in different orders, and two
   nodes can each hold their engine while waiting on a partner queued
   behind the other's. On such grids every stage holds the token just
   for the send, as the on-chip stages do — no process waits while
   holding it, so no cycle can form. *)

type ctx = {
  machine : Machine.t;
  perm : int array;  (* recursive-doubling index -> rank *)
  index : int array;  (* rank -> recursive-doubling index *)
  stages : int;
  tokens : Resource.t array;  (* per-node communication engine *)
  whole_nodes : bool;  (* the node rectangle divides the grid *)
}

let ctx engine machine =
  let p = Machine.cores machine in
  (* Node-major index: cores of a node occupy consecutive indices. *)
  let keyed =
    List.init p (fun rank ->
        let node = Machine.node_of_rank machine rank in
        ((node, rank), rank))
  in
  let sorted = List.sort compare keyed in
  let perm = Array.of_list (List.map snd sorted) in
  let index = Array.make p 0 in
  Array.iteri (fun i rank -> index.(rank) <- i) perm;
  {
    machine;
    perm;
    index;
    stages = Loggp.Allreduce.ceil_log2 p;
    tokens =
      Array.init (Machine.node_count machine) (fun _ -> Resource.create engine);
    whole_nodes =
      machine.pgrid.cols mod machine.cmp.cx = 0
      && machine.pgrid.rows mod machine.cmp.cy = 0;
  }

(* The per-rank participation in one all-reduce; call from the rank's
   process. *)
let allreduce ctx mpi ~rank ~msg_size =
  let p = Machine.cores ctx.machine in
  let my = ctx.index.(rank) in
  let token = ctx.tokens.(Machine.node_of_rank ctx.machine rank) in
  for k = 0 to ctx.stages - 1 do
    let partner_idx = my lxor (1 lsl k) in
    if partner_idx < p then begin
      let partner = ctx.perm.(partner_idx) in
      match Machine.locality ctx.machine ~src:rank ~dst:partner with
      | Off_node when ctx.whole_nodes ->
          Resource.with_resource token (fun () ->
              Mpi_sim.sendrecv mpi ~self:rank ~other:partner ~size:msg_size)
      | Off_node | On_chip ->
          Resource.with_resource token (fun () ->
              Mpi_sim.send mpi ~src:rank ~dst:partner ~size:msg_size);
          Mpi_sim.recv mpi ~dst:rank ~src:partner ~size:msg_size
    end
  done
