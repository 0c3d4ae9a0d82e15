"""Command line front end.

One subcommand per calculator question, a shared config file, optional
JSON reports, and stdin batching. Exit codes: 0 for success, 1 for a
negative check (a failed verify, a mismatch, a non-member, a
non-divisible class), 2 for usage or parse problems, 3 when a degree cap
is hit. Membership is decided exactly: a preimage or exit 1.

Config files hold `key = value` lines (# comments allowed) with the one
key max_degree (the degree cap, default 16). The BORDCALC_CONFIG
environment variable names a default config file; --config overrides it.
Every parsed expression or space, Gamma or divide-e result, augmentation,
membership target and verify degree passes the cap's one rule,
CoefRing.check_size, or exits 3 unbuilt.

argv is read off one table, _COMMANDS, with no argparse: each row holds a
command's help text, grammar, handler and own options, and the reader and
the help text are built from it. The reader walks argv once, left to
right, by the grammar README states: the command, then options and
arguments in any order, and after the first -- arguments only. -h or
--help prints help to stdout and exits 0; a usage error prints an error
line and a usage line to stderr and main returns 2.
"""

import os
import re
import sys
import time
from types import SimpleNamespace

from .charnum import sw_numbers, identify_in_nbo1
from .conner_floyd import FreeBZ2Elem
from .errors import (CapacityError, ContractViolation, IntegrityError,
                     NotDivisible, ParseError)
from .gf2 import GradedPoly
from .parsing import (parse_bundle, parse_laurent, parse_manifold,
                      parse_presentation, parse_space)
from .session import Session
from .verify import ORACLE_SUITES, SUITES, default_degree, verify


def _load_config(path):
    keys = {'max_degree': int}
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
    # an explicit --config is the path even when empty, and is refused as
    # no such file; an empty BORDCALC_CONFIG names no file
    path = args.config
    if path is None:
        path = os.environ.get('BORDCALC_CONFIG') or None
    cfg = {} if path is None else _load_config(path)
    # the config keys are Session's parameters
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


def _handle_divide_e(s, args, expr):
    x = _read(s, args, expr)
    try:
        out = s.mo.normal_form(s.mo.divide_e(x))
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
    # is_geometric's rule, read off this normal form
    ok = all(fm.epow == 0 for fm in nf.monos)
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
# grammar its expression is read in (None when it reads none), its handler,
# which returns the exit code, the outputs, the text lines and optionally
# the checks of the --json report, and its own options. An option is
# (flag, field of args, how its value is read, default, help): read is int,
# str, a tuple of the values admitted, or None for a flag that takes no
# value and sets True. A name without dashes is a positional argument that
# must be given; a command with a grammar takes one more, its expression,
# whose absence batches over stdin.
_COMMANDS = {
    'nf': ('rewrite onto the additive basis', 'presentation',
           _answer('normal_form', lambda s, x: s.mo.normal_form(x)), ()),
    'loc': ('localize to the Laurent model', 'presentation',
            _answer('localization', lambda s, x: s.mo.localize(x)), ()),
    'alpha': ('augment to the coefficient ring', 'presentation',
              _answer('alpha', lambda s, x: s.mo.alpha(x)), ()),
    'gamma': ('apply the Gamma operator', 'presentation',
              _answer('gamma', lambda s, x: s.mo.normal_form(s.mo.gamma(x))), ()),
    'divide-e': ('divide by the Euler class when possible', 'presentation', _handle_divide_e,
                 ()),
    'member': ('find a preimage of a Laurent class', 'laurent', _handle_member, ()),
    'geometric': ('test membership in the geometric subring', 'presentation',
                  _handle_geometric, ()),
    'quotient': ('reduce into the obstruction quotient', 'presentation',
                 _answer('quotient', lambda s, x: s.mo.quotient_reduce(x)), ()),
    'euler': ('the Euler class e^k on suspension leg m', None, _handle_euler,
              (('m', 'm', int, None, 'the suspension leg'),
               ('k', 'k', int, None, 'the power of e'))),
    'phi': ('bundle-algebra image of a manifold expression', 'manifold',
            _answer('phi', lambda s, terms: sum(map(s.geometry.phi, terms),
                                                GradedPoly.zero(s.table))), ()),
    'delta': ('boundary of a bundle class', 'bundle',
              _answer('delta', lambda s, x: s.geometry.delta(x)), ()),
    'compare': ('compare the two localizations of a manifold expression', 'manifold',
                _handle_compare, ()),
    'charnum': ('Stiefel-Whitney numbers of a space', 'space', _handle_charnum,
                (('--ref', 'ref', str, None, 'degree-1 generator used as reference line'),)),
    'verify': ('run internal consistency suites', None, _handle_verify,
               (('--suite', 'suite', SUITES + ('all',) + ORACLE_SUITES, 'all',
                 'the suite to run (default: all)'),
                ('--degree', 'degree', int, None,
                 'sweep through this degree (default: the largest the cap admits)'))),
    'basis-table': ('list additive basis monomials by degree', None, _handle_basis_table,
                    (('--min', 'dmin', int, 0, 'the least degree listed (default: 0)'),
                     ('--max', 'dmax', int, 4, 'the largest degree listed (default: 4)'),
                     ('--e-cap', 'e_cap', int, None,
                      'the largest e power (default: 4 more than the negative part'
                      ' of the degree)'))),
}

# the options every command takes
_COMMON = (
    ('--json', 'json', None, False, 'emit a JSON report instead of plain text'),
    ('--config', 'config', str, None, 'config file path'),
)
_HELP = ('-h/--help', 'help', None, False, 'show this help and exit')

_HANDLERS = {name: handler for name, (_, _, handler, _) in _COMMANDS.items()}

class _Stop(Exception):
    """Ends reading argv: help to print on stdout (code 0) or a usage error
    to print on stderr (code 2)."""

    def __init__(self, code, text):
        super().__init__(text)
        self.code = code


def _arguments(command):
    """The options, common ones first, and the positional arguments of a
    command; its expression, when it reads one, is the last of these."""
    _, grammar, _, own = _COMMANDS[command]
    options = [spec for spec in _COMMON + own if spec[0].startswith('-')]
    positional = [spec for spec in own if not spec[0].startswith('-')]
    if grammar is not None:
        positional.append(('expr', 'expr', str, None,
                           grammar + ' expression (stdin batch when omitted)'))
    return options, positional


def _form(spec):
    """How an option is written: --config CONFIG, --suite {...}, --json."""
    flag, _, read, _, _ = spec
    if read is None:
        return flag
    if isinstance(read, tuple):
        return '%s {%s}' % (flag, ','.join(read))
    return '%s %s' % (flag, flag.lstrip('-').upper().replace('-', '_'))


def _usage(command):
    if command is None:
        return 'usage: bordcalc [-h] COMMAND ...'
    options, positional = _arguments(command)
    words = ['usage: bordcalc', command, '[-h]'] + ['[%s]' % _form(spec) for spec in options]
    words += ['[expr]' if spec[0] == 'expr' else spec[0] for spec in positional]
    return ' '.join(words)


def _columns(entries):
    """Help lines of (left, text) pairs, the texts in one column; a text
    whose left part is wider than 24 goes on a line of its own."""
    width = max(len(left) for left, _ in entries if len(left) <= 24)
    lines = []
    for left, text in entries:
        if len(left) > width:
            lines += ['  ' + left, '  %s  %s' % (' ' * width, text)]
        else:
            lines.append('  %-*s  %s' % (width, left, text))
    return lines


def _help(command):
    if command is None:
        return '\n'.join(
            [_usage(None), '', 'exact calculator for Z/2-equivariant unoriented bordism',
             '', 'commands:']
            + _columns([(name, row[0]) for name, row in _COMMANDS.items()])
            + ['', 'Every command takes --json and --config CONFIG;',
               "'bordcalc COMMAND --help' lists the options of one command."])
    options, positional = _arguments(command)
    lines = [_usage(command), '', _COMMANDS[command][0]]
    if positional:
        lines += ['', 'arguments:'] + _columns([(spec[0], spec[4]) for spec in positional])
    lines += ['', 'options:'] + _columns(
        [('-h, --help', _HELP[4])] + [(_form(spec), spec[4]) for spec in options])
    return '\n'.join(lines)


def _fail(command, message):
    raise _Stop(2, 'error: %s\n%s' % (message, _usage(command)))


def _value(command, spec, text):
    flag, _, read, _, _ = spec
    if isinstance(read, tuple):
        if text not in read:
            _fail(command, 'argument %s: invalid choice: %r (choose from %s)'
                  % (flag, text, ', '.join(map(repr, read))))
        return text
    try:
        return read(text)
    except ValueError:
        _fail(command, 'argument %s: invalid %s value: %r' % (flag, read.__name__, text))


def _read_argv(argv):
    """The args of one command line, read off _COMMANDS in one walk from
    left to right.

    The command comes first; a -h or --help before it asks for the command
    list. Options and arguments follow in any order. An option is written
    --name value, --name=value, or with a unique prefix of its name, and the
    last of a repeated option wins; -, a negative number and a text with a
    space are arguments, and so is every token after the first --, which is
    dropped. Help and usage errors raise _Stop. Help is given once argv is
    read: an ambiguous prefix anywhere before the first --, or an error
    met before the help, beats it; a missing or surplus argument does not.
    """
    command = args = wanting = None
    flags = {'-h': _HELP, '--help': _HELP}
    slots, extras, helped, dashed = [], [], False, False
    for token in argv:
        if token == '--' and not dashed:
            if command is None and not helped:
                _fail(None, "argument command: invalid choice: '--'")
            if wanting:
                break
            dashed = True
            continue
        # found: None for an argument, else the flags the token may name
        found = None
        if not dashed and token[:1] == '-' and token != '-':
            name, eq, explicit = token.partition('=')
            explicit = explicit if eq else None
            if token[1] == '-':
                found = [flag for flag in flags if flag.startswith(name)]
            else:
                # -h takes no value, yet -hh reads as -h -h and -h=h as -h h
                found = ['-h'] if token[:2] == '-h' else []
                explicit = explicit if name == '-h' else token[2:]
            if len(found) > 1:
                _fail(command, 'ambiguous option: %s could match %s' % (token, ', '.join(found)))
            if not found and (re.match(r'-\d+$|-\d*\.\d+$', token) or ' ' in token):
                found = None
        if helped:
            continue
        if wanting:
            if found is not None:
                break
            setattr(args, wanting[1], _value(command, wanting, token))
            wanting = None
        elif found is None and command is None:
            if token not in _COMMANDS:
                _fail(None, 'argument command: invalid choice: %r (choose from %s)'
                      % (token, ', '.join(map(repr, _COMMANDS))))
            command = token
            options, slots = _arguments(command)
            flags.update((spec[0], spec) for spec in options)
            args = SimpleNamespace(command=command, **{spec[1]: spec[3] for spec in options + slots})
        elif found is None and slots:
            spec = slots.pop(0)
            setattr(args, spec[1], _value(command, spec, token))
        elif not found:
            extras.append(token)
        else:
            flag, spec = found[0], flags[found[0]]
            if spec[2] is not None and explicit is None:
                wanting = spec
            elif spec[2] is not None:
                setattr(args, spec[1], _value(command, spec, explicit))
            elif explicit is not None and not (flag == '-h' and explicit and not explicit.strip('h')):
                _fail(command, 'argument %s: ignored explicit argument %r' % (flag, explicit))
            elif spec is _HELP:
                helped = True
            else:
                setattr(args, spec[1], True)
    # a value was missing: argv ended, or an option or -- stood in its place
    if wanting:
        _fail(command, 'argument %s: expected one argument' % wanting[0])
    if helped:
        raise _Stop(0, _help(command))
    if command is None:
        _fail(None, 'the following arguments are required: command')
    # the expression may be left out, the other positional arguments not
    required = [spec[0] for spec in slots if spec[0] != 'expr']
    if required:
        _fail(command, 'the following arguments are required: %s' % ', '.join(required))
    if extras:
        _fail(command, 'unrecognized arguments: %s' % ' '.join(extras))
    return args


def _describe_inputs(session, args, expr):
    if args.command == 'euler':
        return {'m': args.m, 'k': args.k}
    if args.command == 'verify':
        degree = args.degree
        # None when the cap admits no degree, and verify refuses to run
        return {'suite': args.suite,
                'degree': default_degree(session, args.suite) if degree is None else degree}
    if args.command == 'basis-table':
        inputs = {'min': args.dmin, 'max': args.dmax}
        if args.e_cap is not None:
            inputs['e_cap'] = args.e_cap
        return inputs
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
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        print(stop, file=sys.stderr if stop.code else sys.stdout)
        return stop.code
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
