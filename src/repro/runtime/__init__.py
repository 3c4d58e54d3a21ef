"""Accelerator programming-model runtimes.

One pricing engine class (:class:`~repro.runtime.engine.Engine`) serves
three backends. The CPU engine prices a loop on the node's roofline (Code
0); the OpenACC and DC engines price it on the GPU and reproduce the
mechanism-level differences between OpenACC and Fortran ``do concurrent``
(DC) that the paper identifies (SIV-B):

* OpenACC -- parallel regions with kernel *fusion*, ``async`` queues,
  manual data directives, ``atomic`` array reductions, ``kernels``
  regions, ``routine`` support.
* DC -- one kernel per loop (kernel *fission*), synchronous launches
  only, and the compiler restrictions of
  :mod:`repro.runtime.doconcurrent`: the Fortran 202X ``reduce`` clause,
  inlined routines, and the flipped outer-DC/inner-reduce array-reduction
  rewrite of Code 5.

A :class:`~repro.runtime.config.RuntimeConfig` (built per code version in
`repro.codes`) routes each loop category to a backend, mirroring Table I;
:class:`~repro.runtime.dispatcher.RankRuntime` resolves that routing once
per rank and holds the one pending-launch buffer fusion plans are made
from.
"""
