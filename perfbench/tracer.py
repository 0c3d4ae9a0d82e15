"""Span tracer installed from outside bordcalc, around the calls into each module.

`Tracer.install()` replaces the public functions of the bordcalc modules
at every name they are imported under (a module that did
`from .gf2 import rank_sets` holds its own reference), the public
methods of `BordismRing` and `Geometry`, the clearing maps of
`LaurentRing`, the CLI handlers and `GradedPoly.__mul__`. Each call becomes a span: name, start, end, parent
span and thread id. Spans stay in flat in-memory arrays until the run
ends; `report()` turns them into per-name call counts and self times and
appends the raw spans to a file.

`verify._sweep` runs degrees on a thread pool, so each thread keeps its
own span stack. Work submitted to the pool is linked to the span that
submitted it, but a span's self time only subtracts children that ran on
its own thread: children on other threads overlap each other and the
parent's wait.
"""

import functools
import gzip
import json
import threading
import time
from array import array


class Tracer:
    def __init__(self):
        self._names = []
        self._name_ids = {}
        self.name = array('i')
        self.start = array('d')
        self.end = array('d')
        self.parent = array('q')
        self.tid = array('q')
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._book_id = self._name_id('trace.bookkeeping')

    # --- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, 'stack', None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def count(self, key, n=1):
        """Add n to a named counter; safe from any thread."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, nid):
        stack = self._stack()
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1])
            self.tid.append(threading.get_ident())
        stack.append(idx)
        return stack, idx

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name, fn, after=None):
        """fn recorded as span `name`; after(args, result) runs outside it.

        A call that raises counts under `<name>.raised`.
        """
        nid = self._name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, idx = self._open(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + '.raised')
                raise
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                # bookkeeping is a span of its own, so it is not charged
                # to the caller's self time
                stack, bidx = self._open(self._book_id)
                b0 = perf()
                after(args, result)
                self.start[bidx] = b0
                self.end[bidx] = perf()
                stack.pop()
            return result

        return traced

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn on a pool thread as a child of the submitting span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def current(self):
        return self._stack()[-1]

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap bordcalc's public entry points at every import site."""
        import importlib
        from concurrent.futures import ThreadPoolExecutor

        # the package exports a function named verify, so load by full name
        (charnum, cli, conner_floyd, gf2, localized, parsing, presentation,
         verify) = [importlib.import_module('bordcalc.' + name) for name in (
             'charnum', 'cli', 'conner_floyd', 'gf2', 'localized', 'parsing',
             'presentation', 'verify')]

        def patch(modules, attr, name, after=None):
            for mod in modules:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), after))

        def rank_size(args, result):
            self.count('gf2.rank_sets.rows', len(args[0]))
            self.count('gf2.rank_sets.cols', len(frozenset().union(*args[0])))

        def solve_size(args, result):
            self.count('gf2.solve_sets.rows', len(args[0]))
            self.count('gf2.solve_sets.cols', len(frozenset().union(args[1], *args[0])))

        patch([charnum, cli], 'sw_numbers', 'charnum.sw_numbers')
        patch([charnum, conner_floyd, cli], 'identify_in_nbo1',
              'charnum.identify_in_nbo1')
        patch([charnum, conner_floyd], 'identify_in_n', 'charnum.identify_in_n')
        patch([gf2, charnum, verify], 'rank_sets', 'gf2.rank_sets', rank_size)
        patch([gf2, charnum, localized], 'solve_sets', 'gf2.solve_sets', solve_size)
        patch([gf2, localized, verify], 'poly_rank', 'gf2.poly_rank')
        patch([gf2, presentation], 'solve_gf2', 'gf2.solve_gf2')
        gf2.GradedPoly.__mul__ = self.wrap('gf2.mul', gf2.GradedPoly.__mul__)
        for fn in ('parse_presentation', 'parse_laurent', 'parse_manifold',
                   'parse_bundle', 'parse_space'):
            mods = [parsing] + ([cli] if hasattr(cli, fn) else [])
            patch(mods, fn, 'parsing.parse')

        def member_outcome(args, result):
            if result is presentation.UNDECIDED:
                self.count('presentation.member.undecided')
            elif result is None:
                self.count('presentation.member.none')
            else:
                self.count('presentation.member.found')

        def window_size(args, result):
            self.count('presentation.basis_monomials_window.candidates', len(result))

        def delta_size(args, result):
            self.count('conner_floyd.delta.monomials', len(args[1].terms))

        hooks = {
            'presentation.member': member_outcome,
            'presentation.basis_monomials_window': window_size,
            'conner_floyd.delta': delta_size,
        }
        for cls, layer in ((presentation.BordismRing, 'presentation'),
                           (conner_floyd.Geometry, 'conner_floyd')):
            for attr, value in list(vars(cls).items()):
                if attr.startswith('_') or not callable(value):
                    continue
                name = '%s.%s' % (layer, attr)
                setattr(cls, attr, self.wrap(name, value, hooks.get(name)))
        for attr in ('clear_denominators', 'eval_cleared'):
            setattr(localized.LaurentRing, attr, self.wrap(
                'localized.' + attr, getattr(localized.LaurentRing, attr)))

        for command, handler in list(cli._HANDLERS.items()):
            cli._HANDLERS[command] = self.wrap('cli.handler', handler)

        tracer = self

        class LinkedPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn,
                                      *args, **kwargs)

        verify.ThreadPoolExecutor = LinkedPool

    # --- reading back ----------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.name)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and self.tid[p] == self.tid[i]:
                child_s[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self._names[self.name[i]],
                                 {'calls': 0, 'total_s': 0.0, 'self_s': 0.0})
            row['calls'] += 1
            row['total_s'] += dur
            row['self_s'] += dur - child_s[i]
        return out

    def report(self, sessions, spans_path):
        """Summary, counters and cache sizes; raw spans appended to spans_path.

        spans_path is a gzip file of JSON lines, one per traced process:
        the span names and the columns name, start, end, parent, thread.
        """
        counters = dict(self.counters)
        # identifications delta asked for, i.e. its cache misses
        delta = self._name_ids.get('conner_floyd.delta')
        nbo1 = self._name_ids.get('charnum.identify_in_nbo1')
        counters['conner_floyd.delta.identify_calls'] = sum(
            1 for i, nid in enumerate(self.name)
            if nid == nbo1 and self.parent[i] >= 0 and self.name[self.parent[i]] == delta)
        caches = {
            'presentation.nf_cache.entries':
                sum(len(s.mo._nf_cache) for s in sessions),
            'conner_floyd.delta_cache.entries':
                sum(len(s.geometry._delta_cache) for s in sessions),
        }
        with gzip.open(spans_path, 'at') as fh:
            fh.write(json.dumps({'names': self._names, 'name': list(self.name),
                                 'start': list(self.start), 'end': list(self.end),
                                 'parent': list(self.parent), 'thread': list(self.tid)}))
            fh.write('\n')
        return {'summary': self.summary(), 'counters': counters, 'caches': caches,
                'spans': len(self.name)}
