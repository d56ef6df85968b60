"""The pool leak check: which of a pool's worker processes are alive.

A closed pool must leave none, and an open one exactly the workers it
counts -- a crash reset or an idle shrink that lost track of a process
shows up as a pid here that ``stats()["worker_pids"]`` does not list.
"""

import multiprocessing as mp


def live_workers(pool):
    """Pids of ``pool``'s worker processes still alive (every worker is
    named after its pool), whether or not the pool still counts them."""
    prefix = f"{pool.name}-w"
    return sorted(
        p.pid for p in mp.active_children() if p.name.startswith(prefix)
    )
