"""Command-line tools mirroring Mahimahi's shells.

The shells compose on the command line exactly like the originals::

    mm-webreplay recorded/ mm-link 14 14 mm-delay 40 load
    mm-webrecord --seed 3 out/ http://www.example.com/
    mm-corpus generate --out corpus/ --size 20
    mm-trace constant --rate 12 --out 12mbit.trace
    mm-fsck corpus/ --repair

Because the whole toolkit is a simulation, "running a browser inside the
shells" means: each shell (``mm-webreplay``, ``mm-link``, ``mm-delay``,
``mm-loss``, ``mm-chaos``) parses its own arguments into the one call
that adds it to a stack and hands the rest of the command line on; the
innermost ``load`` runs those calls, outermost first, on one fresh
simulator, runs the browser model in the innermost namespace, and
prints the measured page load time.

Every tool but ``mm-lint`` is ``main = main_wrapper(run)`` over
:mod:`repro.cli.common`: one argparse ``Parser``, bounds checked by
argparse types, and one exit path (an ``error:`` line and status 2).
"""
