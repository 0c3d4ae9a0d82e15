"""Command line front end.

One subcommand per calculator question, a shared config file, optional
JSON reports, and stdin batching. Exit codes: 0 for success, 1 for a
negative check (a failed verify, a mismatch, a non-member, a
non-divisible class), 2 for usage or parse problems, 3 when a degree cap
or the rewrite fuel is hit. Membership is decided exactly: a preimage or
exit 1.

Config files hold `key = value` lines (# comments allowed) with the keys
max_degree (the degree cap, default 16) and fuel. The BORDCALC_CONFIG
environment variable names a default config file; --config overrides it.
Every parsed expression or space, Gamma or divide-e result, augmentation,
membership target and verify degree passes the cap's one rule,
CoefRing.check_size, or exits 3 unbuilt.
"""

import argparse
import os
import sys
import time

from .charnum import sw_numbers, identify_in_nbo1
from .conner_floyd import FreeBZ2Elem
from .errors import (CapacityError, ContractViolation, FuelExhausted,
                     IntegrityError, NotDivisible, ParseError)
from .gf2 import GradedPoly
from .parsing import (parse_bundle, parse_laurent, parse_manifold,
                      parse_presentation, parse_space)
from .session import Session
from .verify import ORACLE_SUITES, SUITES, default_degree, verify


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--json', action='store_true',
                        help='emit a JSON report instead of plain text')
    common.add_argument('--config', help='config file path')
    common.add_argument('--fuel', type=int, help='rewrite step budget')

    parser = argparse.ArgumentParser(
        prog='bordcalc',
        description='exact calculator for Z/2-equivariant unoriented bordism')
    sub = parser.add_subparsers(dest='command', required=True)
    p = {}
    for name, (help_text, grammar, _) in _COMMANDS.items():
        p[name] = sub.add_parser(name, parents=[common], help=help_text)
        if grammar is not None:
            p[name].add_argument('expr', nargs='?',
                                 help=grammar + ' expression (stdin batch when omitted)')
    p['euler'].add_argument('m', type=int)
    p['euler'].add_argument('k', type=int)
    p['charnum'].add_argument('--ref', help='degree-1 generator used as reference line')
    p['verify'].add_argument('--suite', default='all',
                             choices=SUITES + ('all',) + ORACLE_SUITES)
    p['verify'].add_argument('--degree', type=int, help='sweep through this degree'
                             ' (default: the largest the cap admits)')
    p['basis-table'].add_argument('--min', dest='dmin', type=int, default=0)
    p['basis-table'].add_argument('--max', dest='dmax', type=int, default=4)
    p['basis-table'].add_argument('--e-cap', dest='e_cap', type=int)
    return parser


def _load_config(path):
    keys = {'max_degree': int, 'fuel': int}
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            if '=' not in line:
                raise ValueError('%s:%d: expected key = value' % (path, lineno))
            key, _, value = line.partition('=')
            key = key.strip()
            value = value.strip()
            if key not in keys:
                raise ValueError('%s:%d: unknown key %s' % (path, lineno, key))
            try:
                out[key] = keys[key](value)
            except ValueError:
                raise ValueError('%s:%d: bad value for %s' % (path, lineno, key))
    return out


def _session_from(args):
    path = args.config or os.environ.get('BORDCALC_CONFIG')
    cfg = _load_config(path) if path else {}
    # the config keys are Session's parameters
    if args.fuel is not None:
        cfg['fuel'] = args.fuel
    return Session(**cfg)


# each grammar's parser over its part of the session; the parsers are
# looked up when called, so a replacement put on this module is the one used
_GRAMMARS = {
    'presentation': lambda s, expr: parse_presentation(expr, s.mo),
    'laurent': lambda s, expr: parse_laurent(expr, s.laurent),
    'manifold': lambda s, expr: parse_manifold(expr, s.coef),
    'bundle': lambda s, expr: parse_bundle(expr, s.geometry),
    'space': lambda s, expr: parse_space(expr, s.coef),
}


def _read(s, args, expr):
    """The expression parsed in the grammar of args.command."""
    return _GRAMMARS[_COMMANDS[args.command][1]](s, expr)


def _answer(key, compute):
    """A handler whose one output, under key, is the text of compute(session, parsed expr)."""
    def handle(s, args, expr):
        out = compute(s, _read(s, args, expr)).to_text()
        return 0, {key: out}, [out]
    return handle


def _capped(s, x):
    # Gamma can raise a term's size by one, so its result passes the rule again
    s.coef.check_size('degree plus e power', *x.size())
    return x


def _handle_divide_e(s, args, expr):
    x = _read(s, args, expr)
    try:
        out = s.mo.normal_form(_capped(s, s.mo.divide_e(x)))
    except NotDivisible as exc:
        detail = 'not divisible: augmentation is %s' % exc.remainder.to_text()
        return 1, {'divisible': False,
                   'remainder': exc.remainder.to_text()}, [detail]
    return 0, {'divisible': True, 'quotient': out.to_text()}, [out.to_text()]


def _handle_member(s, args, expr):
    # member answers a sum of basis monomials, so it is its own normal form
    found = s.mo.member(_read(s, args, expr))
    if found is None:
        return 1, {'member': False}, ['not in the image']
    return 0, {'member': True, 'preimage': found.to_text()}, [found.to_text()]


def _handle_geometric(s, args, expr):
    x = _read(s, args, expr)
    nf = s.mo.normal_form(x)
    ok = s.mo.is_geometric(x)
    return (0 if ok else 1), {'geometric': ok, 'normal_form': nf.to_text()}, [
        'geometric' if ok else 'not geometric: %s' % nf.to_text()]


def _handle_euler(s, args, expr):
    out = s.mo.euler(args.m, args.k)
    return 0, {'euler': out.to_text()}, [out.to_text()]


def _handle_compare(s, args, expr):
    terms = _read(s, args, expr)
    bundle = sum(map(s.geometry.phi, terms), GradedPoly.zero(s.table))
    point = sum(map(s.geometry.pt_class, terms), s.mo.zero())
    left = s.geometry.dictionary(bundle)
    right = s.mo.localize(point)
    equal = left == right
    checks = [{'name': 'dictionary o phi = localize o point class',
               'passed': equal, 'detail': ''}]
    lines = ['ok %s' % left.to_text() if equal
             else 'mismatch: dictionary gives %s, localization gives %s'
             % (left.to_text(), right.to_text())]
    return (0 if equal else 1), {'dictionary': left.to_text(),
                                 'localization': right.to_text(),
                                 'equal': equal}, lines, checks


def _handle_charnum(s, args, expr):
    space = _read(s, args, expr)
    ref = space.gen(args.ref) if args.ref else None
    numbers = sw_numbers(space, ref)
    named = {}
    for omega, k in numbers:
        named['w[%s]' % ','.join(map(str, omega)) + ('*r^%d' % k if k else '')] = 1
    lines = ['%s = 1' % name for name in sorted(named)] or ['all zero']
    outputs = {'dimension': space.dim, 'numbers': named}
    if ref is not None:
        parts = identify_in_nbo1(space, ref, s.coef, numbers)
        ident = FreeBZ2Elem(s.table, parts)
        outputs['identify'] = ident.to_text()
        lines.append('class: %s' % ident.to_text())
    return 0, outputs, lines


def _handle_verify(s, args, expr):
    checks = verify(s, args.suite, args.degree)
    lines = []
    for c in checks:
        mark = 'ok' if c.passed else 'FAIL'
        lines.append('%s %s%s' % (mark, c.name,
                                  ' (%s)' % c.detail if c.detail else ''))
    failed = [c for c in checks if not c.passed]
    lines.append('%d checks, %d failed' % (len(checks), len(failed)))
    payload = [{'name': c.name, 'passed': c.passed, 'detail': c.detail}
               for c in checks]
    return (1 if failed else 0), {'failed': len(failed), 'total': len(checks)}, lines, payload


def _handle_basis_table(s, args, expr):
    if args.dmin > args.dmax:
        raise ContractViolation('--min must not exceed --max')
    lines = []
    table = {}
    for d in range(args.dmin, args.dmax + 1):
        fms = s.mo.basis_monomials(d, e_cap=args.e_cap)
        texts = [s.mo.single(fm).to_text() for fm in fms]
        table[str(d)] = texts
        lines.append('degree %d: %d monomials' % (d, len(texts)))
        lines.extend('  %s' % t for t in texts)
    return 0, {'table': table}, lines


# One row per command, in the order of the help text: its help text, the
# grammar its expression is read in (None when it reads none) and its
# handler, which returns the exit code, the outputs, the text lines and
# optionally the checks of the --json report.
_COMMANDS = {
    'nf': ('rewrite onto the additive basis', 'presentation',
           _answer('normal_form', lambda s, x: s.mo.normal_form(x))),
    'loc': ('localize to the Laurent model', 'presentation',
            _answer('localization', lambda s, x: s.mo.localize(x))),
    'alpha': ('augment to the coefficient ring', 'presentation',
              _answer('alpha', lambda s, x: s.mo.alpha(x))),
    'gamma': ('apply the Gamma operator', 'presentation',
              _answer('gamma', lambda s, x: s.mo.normal_form(_capped(s, s.mo.gamma(x))))),
    'divide-e': ('divide by the Euler class when possible', 'presentation', _handle_divide_e),
    'member': ('find a preimage of a Laurent class', 'laurent', _handle_member),
    'geometric': ('test membership in the geometric subring', 'presentation',
                  _handle_geometric),
    'quotient': ('reduce into the obstruction quotient', 'presentation',
                 _answer('quotient', lambda s, x: s.mo.quotient_reduce(x))),
    'euler': ('the Euler class e^k on suspension leg m', None, _handle_euler),
    'phi': ('bundle-algebra image of a manifold expression', 'manifold',
            _answer('phi', lambda s, terms: sum(map(s.geometry.phi, terms),
                                                GradedPoly.zero(s.table)))),
    'delta': ('boundary of a bundle class', 'bundle',
              _answer('delta', lambda s, x: s.geometry.delta(x))),
    'compare': ('compare the two localizations of a manifold expression', 'manifold',
                _handle_compare),
    'charnum': ('Stiefel-Whitney numbers of a space', 'space', _handle_charnum),
    'verify': ('run internal consistency suites', None, _handle_verify),
    'basis-table': ('list additive basis monomials by degree', None, _handle_basis_table),
}

_HANDLERS = {name: handler for name, (_, _, handler) in _COMMANDS.items()}


def _describe_inputs(session, args, expr):
    if args.command == 'euler':
        return {'m': args.m, 'k': args.k}
    if args.command == 'verify':
        degree = args.degree
        # None when the cap admits no degree, and verify refuses to run
        return {'suite': args.suite,
                'degree': default_degree(session, args.suite) if degree is None else degree}
    if args.command == 'basis-table':
        return {'min': args.dmin, 'max': args.dmax}
    inputs = {'expr': expr}
    if args.command == 'charnum' and args.ref:
        inputs['ref'] = args.ref
    return inputs


def _run_one(session, args, expr):
    start = time.monotonic()
    checks = []
    try:
        result = _HANDLERS[args.command](session, args, expr)
        if len(result) == 4:
            code, outputs, lines, checks = result
        else:
            code, outputs, lines = result
    except (ParseError, ContractViolation) as exc:
        code, outputs, lines = 2, {'error': str(exc)}, ['error: %s' % exc]
    except CapacityError as exc:
        code, outputs, lines = 3, {'error': str(exc)}, ['error: %s' % exc]
    except FuelExhausted as exc:
        stuck = session.mo.single(exc.stuck).to_text()
        code, outputs, lines = 3, {'error': str(exc), 'stuck': stuck}, [
            'error: %s, stuck at %s' % (exc, stuck)]
    except (NotDivisible, IntegrityError) as exc:
        code, outputs, lines = 1, {'error': str(exc)}, ['error: %s' % exc]
    elapsed = int((time.monotonic() - start) * 1000)
    if args.json:
        # only a report needs json: a plain call does not load it
        import json
        report = {'schema': 'bordcalc.report/1', 'command': args.command,
                  'inputs': _describe_inputs(session, args, expr), 'outputs': outputs,
                  'checks': checks, 'elapsed_ms': elapsed}
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main(argv=None):
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point stdout at devnull so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _main(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        session = _session_from(args)
    except (OSError, ValueError, ContractViolation) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    needs_expr = _COMMANDS[args.command][1] is not None
    if needs_expr and args.expr is None:
        code = 0
        for raw in sys.stdin:
            line = raw.strip()
            if not line:
                continue
            code = max(code, _run_one(session, args, line))
        return code
    expr = args.expr if needs_expr else None
    return _run_one(session, args, expr)


if __name__ == '__main__':
    sys.exit(main())
