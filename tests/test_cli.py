"""The command line: exit codes, reports, config handling, batching."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordcalc import cli
from bordcalc.cli import main
from bordcalc.verify import ORACLE_SUITES, SUITES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_nf(capsys):
    code, out = run(capsys, 'nf', 'e*G(1,2)')
    assert code == 0
    assert out.strip() == 'X2 + a2'


def test_exit_code_negative_check(capsys):
    code, out = run(capsys, 'geometric', 'e')
    assert code == 1
    assert 'not geometric' in out
    code, _ = run(capsys, 'geometric', 'G(1,2)*G(2,3)')
    assert code == 0
    code, _ = run(capsys, 'member', 'e^-1')
    assert code == 1


def test_exit_code_usage_error(capsys):
    code, out = run(capsys, 'nf', 'e^-1')
    assert code == 2
    assert 'error' in out
    code, _ = run(capsys, 'nf', 'X2 +')
    assert code == 2


def test_exit_code_capacity(capsys):
    code, out = run(capsys, 'nf', 'X20')
    assert code == 3
    # b17 is the largest bundle generator under the default degree cap 16
    code, out = run(capsys, 'delta', 'b18')
    assert code == 3
    assert 'b18' in out


def test_member_cap_exits_at_once(run_cli):
    # these targets used to hang while the window enumerated degree 800 or
    # 400
    for text in ('c2^400', 'a2^400', 'e^-400'):
        proc = run_cli('member', text)
        assert proc.returncode == 3, text
        assert b'exceeds 17' in proc.stdout + proc.stderr, text


def test_huge_powers_end_at_once(run_cli):
    # each used to run for more than 20 s; a power costs O(log k) products,
    # and S(0) x S(0), two copies of S(0), cancels
    for command, text, code, out in (('delta', '(1+b1)^100000000', 3, b'exceeds 17'),
                                     ('phi', '1^100000000', 0, b'1'),
                                     ('phi', 'triv(0)^100000000', 0, b'0'),
                                     ('phi', 'S(0)^100000000', 0, b'0'),
                                     ('member', '(c1+c2+c3+c4+c5)^100000000', 3,
                                      b'exceeds 17'),
                                     ('member', 'e^100000000', 0, b'e^100000000'),
                                     ('member', 'c1*e^99999999 + e^99999998', 0,
                                      b'X2*e^100000000'),
                                     # RP(200) ran past 5 s; verify at 13 ran 2 s
                                     # before the basis suite met the cap
                                     ('charnum', 'RP(200)', 3, b'exceeds 17'),
                                     ('alpha', 'G(15,2)', 3, b'must lie in N_*'),
                                     ('divide-e', 'G(15,2)', 3, b'must lie in N_*'),
                                     ('verify', '--degree=13', 3,
                                      b'coefficient degree 17 exceeds')):
        proc = run_cli(command, text)
        assert proc.returncode == code, text
        assert out in proc.stdout, text


def test_integers_longer_than_int_reads(run_cli):
    # int() reads at most 4300 digits: each of these crashed with a
    # traceback; an integer atom needs only its parity, and a subscript or
    # exponent that long is past every cap
    digits = '1' * 5000
    for command, text, code, out in (('nf', digits, 0, b'1\n'),
                                     ('nf', '2' + digits + '0', 0, b'0\n'),
                                     ('nf', 'X2^' + digits, 3, b'error: '),
                                     ('nf', 'a' + digits, 3, b'error: '),
                                     ('nf', 'G(1,%s)' % digits, 3, b'error: '),
                                     ('member', 'e^-' + digits, 3, b'error: '),
                                     ('phi', 'P(%s)' % digits, 3, b'error: '),
                                     ('charnum', 'RP(%s)' % digits, 3, b'error: ')):
        proc = run_cli(command, text)
        assert proc.returncode == code, text[:10]
        assert proc.stdout.startswith(out), text[:10]
        assert b'Traceback' not in proc.stderr, text[:10]


def test_cli_import_leaves_out_the_heavy_stdlib():
    # python -S keeps site's .pth files from importing modules of their own
    code = ('import sys; sys.path.insert(0, %r)\n'
            'import bordcalc.cli\n'
            'from bordcalc.session import Session\n'
            'Session()\n'
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing', 'json'}"
            " & set(sys.modules)))"
            % str(Path(__file__).resolve().parents[1] / 'src'))
    proc = subprocess.run([sys.executable, '-S', '-c', code], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'[]\n', b'')


def test_plain_call_leaves_out_argparse():
    # argv is read off the command table: a plain call builds no parser and
    # loads neither argparse nor the gettext and locale it brings
    code = ('import sys; sys.path.insert(0, %r)\n'
            'from bordcalc.cli import main\n'
            "assert main(['nf', 'X2']) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
            % str(Path(__file__).resolve().parents[1] / 'src'))
    env = {k: v for k, v in os.environ.items() if k != 'BORDCALC_CONFIG'}
    proc = subprocess.run([sys.executable, '-S', '-c', code], capture_output=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'X2\n[]\n', b'')


_GAMMA_3 = ('ok gamma: e*G(1,2) rewrites to X2 + a2\nok gamma: Gamma(e*x) strips e\n'
            'ok gamma: Gamma kills trivial classes (2 monomials)\n'
            'ok gamma: e*G(i,n) = G(i-1,n) + alpha(G(i-1,n)) (4 pairs)\n4 checks, 0 failed\n')
_TABLE_2_3 = ('degree 2: 3 monomials\n  a2\n  X2\n  X3*e\ndegree 3: 7 monomials\n  a2^2*e\n'
              '  a4*e\n  a2*X2*e\n  X2*X2*e\n  X3\n  X4*e\n  G(1,2)\n')
_SYNTAX = ('error: syntax error at position 0: expected a<d>, X<n>, G(i,n), Gamma(...), '
           'iota(...), e, an integer, (\n')
# an empty config file: the default session
_EMPTY = os.devnull

# (argv, exit code, stdout) as the argparse front end gave them; stdout
# None where argparse ended with SystemExit(2), a usage error. The rows with
# a -- are argparse's too, but argparse refused a -- that no open positional
# argument took, and the reader drops every first --: see
# test_dashdash_reads_as_absent
ARGV_PARITY = [
    # every command, its options before and after its arguments
    (('nf', '--config', _EMPTY, 'e*G(1,2)'), 0, 'X2 + a2\n'),
    (('nf', 'e*G(1,2)', '--config', _EMPTY), 0, 'X2 + a2\n'),
    (('loc', '--config', _EMPTY, 'G(1,2)'), 0, 'a2*e^-1 + c1*e^-2 + e^-3\n'),
    (('loc', 'G(1,2)', '--config', _EMPTY), 0, 'a2*e^-1 + c1*e^-2 + e^-3\n'),
    (('alpha', '--config', _EMPTY, 'G(2,2)'), 0, 'a2^2 + a4\n'),
    (('alpha', 'G(2,2)', '--config', _EMPTY), 0, 'a2^2 + a4\n'),
    (('gamma', '--config', _EMPTY, 'X2*X3'), 0, 'a2*G(1,3) + G(1,2)*X3\n'),
    (('gamma', 'X2*X3', '--config', _EMPTY), 0, 'a2*G(1,3) + G(1,2)*X3\n'),
    (('divide-e', '--config', _EMPTY, 'e^2*X2'), 0, 'X2*e\n'),
    (('divide-e', 'e^2*X2', '--config', _EMPTY), 0, 'X2*e\n'),
    (('member', '--config', _EMPTY, 'c1*e^-1 + e^-2'), 0, 'X2\n'),
    (('member', 'c1*e^-1 + e^-2', '--config', _EMPTY), 0, 'X2\n'),
    (('geometric', '--config', _EMPTY, 'G(1,2)'), 0, 'geometric\n'),
    (('geometric', 'G(1,2)', '--config', _EMPTY), 0, 'geometric\n'),
    (('quotient', '--config', _EMPTY, 'e^2*G(1,2)'), 0, '(a2 + X2)*x1\n'),
    (('quotient', 'e^2*G(1,2)', '--config', _EMPTY), 0, '(a2 + X2)*x1\n'),
    (('euler', '--config', _EMPTY, '0', '3'), 0, 'e^3\n'),
    (('euler', '0', '3', '--config', _EMPTY), 0, 'e^3\n'),
    (('euler', '0', '--config', _EMPTY, '3'), 0, 'e^3\n'),
    (('phi', '--config', _EMPTY, 'gamma(P(2))'), 0, 'a2*b1 + b1^3 + b1*b2\n'),
    (('phi', 'gamma(P(2))', '--config', _EMPTY), 0, 'a2*b1 + b1^3 + b1*b2\n'),
    (('delta', '--config', _EMPTY, 'b1*b2'), 0, 'a2*s0 + s2\n'),
    (('delta', 'b1*b2', '--config', _EMPTY), 0, 'a2*s0 + s2\n'),
    (('compare', '--config', _EMPTY, 'gamma(P(2))*P(2)'), 0,
     'ok a2*c1*e^-2 + a2*e^-3 + c1^2*e^-3 + e^-5\n'),
    (('compare', 'gamma(P(2))*P(2)', '--config', _EMPTY), 0,
     'ok a2*c1*e^-2 + a2*e^-3 + c1^2*e^-3 + e^-5\n'),
    (('charnum', '--ref', 'u', 'RP(3)'), 0, 'w[]*r^3 = 1\nclass: s3\n'),
    (('charnum', 'RP(3)', '--ref', 'u'), 0, 'w[]*r^3 = 1\nclass: s3\n'),
    (('verify', '--suite', 'gamma', '--degree', '3'), 0, _GAMMA_3),
    (('verify', '--degree', '3', '--suite', 'gamma'), 0, _GAMMA_3),
    (('basis-table', '--min', '2', '--max', '3', '--e-cap', '1'), 0, _TABLE_2_3),
    (('basis-table', '--e-cap', '1', '--max', '3', '--min', '2'), 0, _TABLE_2_3),
    # the = form and unique prefixes
    (('nf', '--config=' + _EMPTY, 'X2*X2'), 0, 'X2*X2\n'),
    (('charnum', '--ref=u', 'RP(3)'), 0, 'w[]*r^3 = 1\nclass: s3\n'),
    (('verify', '--suite=gamma', '--degree=3'), 0, _GAMMA_3),
    (('basis-table', '--min=1', '--max=2', '--e-cap=0'), 0,
     'degree 1: 0 monomials\ndegree 2: 2 monomials\n  a2\n  X2\n'),
    (('verify', '--su', 'gamma', '--deg', '3'), 0, _GAMMA_3),
    (('verify', '--deg=3', '--s=gamma'), 0, _GAMMA_3),
    (('basis-table', '--mi', '2', '--ma', '2', '--e', '0'), 0,
     'degree 2: 2 monomials\n  a2\n  X2\n'),
    (('charnum', '--r', 'u', 'RP(3)'), 0, 'w[]*r^3 = 1\nclass: s3\n'),
    (('nf', '--conf', _EMPTY, 'X2'), 0, 'X2\n'),
    (('nf', '--c=' + _EMPTY, 'X2'), 0, 'X2\n'),
    # a repeated option: the last one wins
    (('verify', '--degree', '3', '--degree', '-1'), 2,
     'error: verify degree must be nonnegative, got -1\n'),
    (('verify', '--suite', 'loc', '--suite', 'gamma', '--degree', '9', '--degree', '3'), 0,
     _GAMMA_3),
    (('charnum', '--ref', 'v', '--ref', 'u', 'RP(3)'), 0, 'w[]*r^3 = 1\nclass: s3\n'),
    # negative ints are values
    (('verify', '--degree', '-1'), 2, 'error: verify degree must be nonnegative, got -1\n'),
    (('verify', '--degree=-1'), 2, 'error: verify degree must be nonnegative, got -1\n'),
    (('basis-table', '--e-cap', '-1'), 2, 'error: the e cap must be nonnegative, got -1\n'),
    (('basis-table', '--min', '-1', '--max', '-1'), 0,
     'degree -1: 9 monomials\n  e\n  a2*e^3\n  a2^2*e^5\n  a4*e^5\n  X2*e^3\n  a2*X2*e^5\n'
     '  X2*X2*e^5\n  X3*e^4\n  X4*e^5\n'),
    (('euler', '-1', '2'), 2, 'error: euler needs m, k >= 0\n'),
    (('euler', '2', '-1'), 2, 'error: euler needs m, k >= 0\n'),
    # everything after the first -- is positional
    (('euler', '--', '-1', '2'), 2, 'error: euler needs m, k >= 0\n'),
    (('nf', '--', 'X2'), 0, 'X2\n'),
    (('nf', 'X2', '--'), 0, 'X2\n'),
    (('euler', '0', '3', '--'), 0, 'e^3\n'),
    (('nf', '--config', _EMPTY, '--', 'X2'), 0, 'X2\n'),
    (('charnum', '--ref', 'u', '--', 'RP(3)'), 0, 'w[]*r^3 = 1\nclass: s3\n'),
    (('nf', '--', '--fuel'), 2, _SYNTAX),
    # arguments that start with - and are no option
    (('nf', '-'), 2, _SYNTAX),
    (('nf', '-1'), 2, _SYNTAX),
    (('nf', '-1 + X2'), 2, _SYNTAX),
    (('nf', '--fuel 3'), 2, _SYNTAX),
    (('nf', ''), 2, _SYNTAX),
    # usage errors: a missing or unknown command
    ((), 2, None), (('frob',), 2, None), (('NF', 'X2'), 2, None),
    (('--json', 'nf', 'X2'), 2, None), (('--', 'nf', 'X2'), 2, None),
    # an unknown option, or an argument too many or too few
    (('nf', '--frob', 'X2'), 2, None), (('nf', '-x', 'X2'), 2, None), (('nf', '-X2'), 2, None),
    (('nf', '---', 'X2'), 2, None), (('nf', 'X2', 'X3'), 2, None), (('verify', 'X2'), 2, None),
    (('euler', '1'), 2, None), (('euler',), 2, None), (('euler', '1', '2', '3'), 2, None),
    # a missing value
    (('nf', '--config'), 2, None), (('nf', 'X2', '--config'), 2, None),
    (('nf', '--config', '--json', 'X2'), 2, None), (('verify', '--degree'), 2, None),
    (('charnum', '--ref', '--json', 'RP(3)'), 2, None),
    (('charnum', '--ref', '-x', 'RP(3)'), 2, None),
    (('nf', '--config', '--', _EMPTY, 'X2'), 2, None),
    # a bad int or suite
    (('verify', '--degree', 'x'), 2, None), (('verify', '--degree', '1.5'), 2, None),
    (('verify', '--degree='), 2, None), (('verify', '--degree', 'three'), 2, None),
    (('basis-table', '--max', '2x'), 2, None), (('euler', 'a', '2'), 2, None),
    (('euler', '0', 'b'), 2, None), (('verify', '--suite', 'nope'), 2, None),
    (('verify', '--suite=ALL'), 2, None),
    # an ambiguous prefix, a value given to a flag
    (('basis-table', '--m', '3'), 2, None), (('nf', '--=1', 'X2'), 2, None),
    (('basis-table', '-h', '--m', '3'), 2, None),
    (('nf', '--json=1', 'X2'), 2, None), (('nf', '--json=', 'X2'), 2, None),
    (('nf', '-hx'), 2, None), (('nf', '-h='), 2, None),
    # an error before a later --help
    (('verify', '--degree', 'x', '-h'), 2, None), (('euler', 'x', '-h'), 2, None),
]

# --fuel, a rewrite step budget, is no option any more: each of these argv
# once set it, and each is now an unrecognized argument
_NO_FUEL = [
    ('nf', '--fuel', '5', 'X2'),
    ('nf', '--fuel', '50', 'e*G(1,2)'), ('nf', 'e*G(1,2)', '--fuel', '50'),
    ('loc', '--fuel', '50', 'G(1,2)'), ('loc', 'G(1,2)', '--fuel', '50'),
    ('alpha', '--fuel', '50', 'G(2,2)'), ('alpha', 'G(2,2)', '--fuel', '50'),
    ('gamma', '--fuel', '50', 'X2*X3'), ('gamma', 'X2*X3', '--fuel', '50'),
    ('divide-e', '--fuel', '50', 'e^2*X2'), ('divide-e', 'e^2*X2', '--fuel', '50'),
    ('member', '--fuel', '50', 'c1*e^-1 + e^-2'), ('member', 'c1*e^-1 + e^-2', '--fuel', '50'),
    ('geometric', '--fuel', '50', 'G(1,2)'), ('geometric', 'G(1,2)', '--fuel', '50'),
    ('quotient', '--fuel', '50', 'e^2*G(1,2)'), ('quotient', 'e^2*G(1,2)', '--fuel', '50'),
    ('euler', '--fuel', '5', '0', '3'), ('euler', '0', '3', '--fuel', '5'),
    ('euler', '0', '--fuel', '5', '3'),
    ('phi', '--fuel', '50', 'gamma(P(2))'), ('phi', 'gamma(P(2))', '--fuel', '50'),
    ('delta', '--fuel', '50', 'b1*b2'), ('delta', 'b1*b2', '--fuel', '50'),
    ('compare', '--fuel', '50', 'gamma(P(2))*P(2)'),
    ('compare', 'gamma(P(2))*P(2)', '--fuel', '50'),
    ('nf', '--fuel=50', 'X2*X2'), ('nf', '--fu', '0', 'X2'), ('nf', '--f=0', 'X2'),
    ('nf', '--fuel', '1', '--fuel', '50', 'G(1,2)*G(1,3)'),
    ('nf', '--fuel', '50', '--fuel', '1', 'G(1,2)*G(1,3)'),
    ('nf', '--fuel', '-3', 'X2'), ('nf', '--fuel', '0', '--', 'X2'),
    ('nf', '--fuel'), ('nf', 'X2', '--fuel'), ('nf', '--fuel', '--json', 'X2'),
    ('nf', '--fuel', '--', '0', 'X2'), ('nf', '--fuel', 'x', 'X2'),
    ('nf', '--fuel', '1.5', 'X2'), ('nf', '--fuel=', 'X2'),
]
_NF_HELP = '''usage: bordcalc nf [-h] [--json] [--config CONFIG] [expr]

rewrite onto the additive basis

arguments:
  expr  presentation expression (stdin batch when omitted)

options:
  -h, --help       show this help and exit
  --json           emit a JSON report instead of plain text
  --config CONFIG  config file path
'''
ARGV_PARITY += [(argv, 2, None) for argv in _NO_FUEL]
# an unrecognized argument does not beat a later --help
ARGV_PARITY.append((('nf', '--fuel', 'x', '-h'), 0, _NF_HELP))


@pytest.mark.parametrize('argv,code,out', ARGV_PARITY, ids=[' '.join(row[0]) or '(none)'
                                                            for row in ARGV_PARITY])
def test_argv_parity(capsys, monkeypatch, argv, code, out):
    monkeypatch.delenv('BORDCALC_CONFIG', raising=False)
    monkeypatch.setattr('sys.stdin', io.StringIO(''))
    assert main(list(argv)) == code
    got = capsys.readouterr()
    if out is not None:
        assert got.out == out
    else:
        # one error line, then the usage line
        assert got.out == ''
        error, usage = got.err.splitlines()
        assert error.startswith('error: ') and usage.startswith('usage: bordcalc')


_DASHDASH_LAST = [('verify', '--'), ('basis-table', '--'), ('nf', 'X2', '--json', '--'),
                  ('euler', '0', '3', '--json', '--')]


@pytest.mark.parametrize('argv', _DASHDASH_LAST, ids=[' '.join(argv) for argv in _DASHDASH_LAST])
def test_dashdash_reads_as_absent(capsys, monkeypatch, argv):
    # argparse refused each of these, as no open positional argument took
    # the --; the reader drops the first -- wherever it stands
    monkeypatch.delenv('BORDCALC_CONFIG', raising=False)
    monkeypatch.setattr('sys.stdin', io.StringIO(''))
    runs = []
    for line in (argv, argv[:-1]):
        code = main(list(line))
        runs.append((code, re.sub(r'"elapsed_ms": \d+', '', capsys.readouterr().out)))
    assert runs[0] == runs[1] and runs[0][0] == 0


# texts that start no option; arguments add -, negative numbers and spaces
_WORDS = st.text('abuvX0123456789*()+,^', min_size=1, max_size=6)
_ARGUMENTS = st.one_of(_WORDS, st.sampled_from(['-', '-1', '-2.5', '-1 + X2', '']))


def _option_value(spec):
    read = spec[2]
    if read is None:
        return st.just(True)
    if isinstance(read, tuple):
        return st.sampled_from(read)
    return st.integers(-50, 50) if read is int else _WORDS


def _option_unit(data, spec, value, flags):
    """The tokens of one option set to value, in a drawn form: the flag or a
    unique prefix of it, its value as the next token or after an =."""
    flag = spec[0]
    prefixes = [flag[:n] for n in range(3, len(flag) + 1)
                if [f for f in flags if f.startswith(flag[:n])] == [flag]]
    name = data.draw(st.sampled_from(prefixes))
    if spec[2] is None:
        return [name]
    return data.draw(st.sampled_from([[name, str(value)], ['%s=%s' % (name, value)]]))


@pytest.mark.parametrize('command', list(cli._COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rearranged_argv_reads_as_canonical(command, data):
    # CMD --opt value ... ARGS against the same options moved among the
    # arguments or before a --, in = or prefix form, repeated with the
    # canonical value last
    options, slots = cli._arguments(command)
    flags = ['-h', '--help'] + [spec[0] for spec in options]
    expected = {'command': command}
    expected.update((spec[1], spec[3]) for spec in options + slots)
    canonical, units, repeats = [command], [], []
    for spec in options:
        if not data.draw(st.booleans()):
            continue
        value = data.draw(_option_value(spec))
        expected[spec[1]] = value
        canonical += [spec[0]] if spec[2] is None else [spec[0], str(value)]
        units.append(_option_unit(data, spec, value, flags))
        if data.draw(st.booleans()):
            repeats.append(_option_unit(data, spec, data.draw(_option_value(spec)), flags))
    arguments = []
    for spec in slots:
        if spec[0] == 'expr' and not data.draw(st.booleans()):
            break
        value = data.draw(st.integers(-9, 9) if spec[2] is int else _ARGUMENTS)
        expected[spec[1]] = value
        arguments.append(str(value))
    canonical += arguments
    # every repeat comes before the unit that sets the canonical value
    units = data.draw(st.permutations(repeats)) + data.draw(st.permutations(units))
    if data.draw(st.booleans()):
        rearranged = [command] + sum(units, []) + ['--'] + arguments
    else:
        order = data.draw(st.permutations(['unit'] * len(units) + ['argument'] * len(arguments)))
        units, arguments, rearranged = iter(units), iter(arguments), [command]
        for kind in order:
            rearranged += next(units) if kind == 'unit' else [next(arguments)]
    assert vars(cli._read_argv(canonical)) == expected
    assert vars(cli._read_argv(rearranged)) == expected


# (argv, stdin, exit code, stdout) of a batch, as argparse's front end gave them
STDIN_PARITY = [
    (('nf',), 'e*G(1,2)\n\nX2^2\n', 0, 'X2 + a2\nX2*X2\n'),
    (('nf', '--config', _EMPTY), 'e*G(1,2)\nX2\n', 0, 'X2 + a2\nX2\n'),
    (('loc', '--'), 'G(1,2)\n', 0, 'a2*e^-1 + c1*e^-2 + e^-3\n'),
    (('nf', '--json', '--'), '', 0, ''),
    (('member',), 'e^-1\nc1*e^-1 + e^-2\n', 1, 'not in the image\nX2\n'),
]


@pytest.mark.parametrize('argv,stdin,code,out', STDIN_PARITY)
def test_stdin_parity(capsys, monkeypatch, argv, stdin, code, out):
    monkeypatch.delenv('BORDCALC_CONFIG', raising=False)
    monkeypatch.setattr('sys.stdin', io.StringIO(stdin))
    assert main(list(argv)) == code
    assert capsys.readouterr().out == out


COMMON_OPTIONS = ('-h', '--help', '--json', '--config')
OWN_OPTIONS = {'euler': ('m', 'k'), 'charnum': ('--ref', 'expr'),
               'verify': ('--suite', '--degree') + SUITES + ('all',) + ORACLE_SUITES,
               'basis-table': ('--min', '--max', '--e-cap')}


@pytest.mark.parametrize('argv', [('-h',), ('--help',), ('--he',), ('-hh',), ('--json', '-h'),
                                  ('-h', 'frob')])
def test_help_lists_every_command(capsys, argv):
    assert main(list(argv)) == 0
    got = capsys.readouterr()
    assert got.err == ''
    for name in cli._COMMANDS:
        assert '\n  %s ' % name in got.out, name


@pytest.mark.parametrize('command', list(cli._COMMANDS))
def test_command_help_lists_every_option(capsys, command):
    for argv in ((command, '--help'), (command, '-h', '--frob', 'x'),
                 (command, '0', '1', '--hel')):
        assert main(list(argv)) == 0
        got = capsys.readouterr()
        assert got.err == ''
        assert got.out.startswith('usage: bordcalc %s ' % command)
        for option in COMMON_OPTIONS + OWN_OPTIONS.get(command, ('expr',)):
            assert option in got.out, (argv, option)


def test_manifold_dimension_cap(capsys):
    # P(17) is the largest manifold under the default degree cap 16
    code, out = run(capsys, 'phi', 'P(2)^3000')
    assert code == 3
    assert 'dimension 6000' in out
    code, _ = run(capsys, 'phi', 'P(16)*P(2)')
    assert code == 3
    # a trivial class of mixed degrees counts with its largest one
    code, _ = run(capsys, 'phi', 'P(14)*triv(a2 + a4)')
    assert code == 3
    code, out = run(capsys, 'phi', 'P(17)')
    assert (code, out.strip()) == (0, 'b1^17 + b17')


def test_presentation_degree_cap(capsys):
    # a term's degree plus its e power stays within X17's 17 under cap 16
    code, out = run(capsys, 'nf', 'X2^400')
    assert code == 3
    assert 'degree plus e power 800 exceeds 17' in out
    # a2*a2*a13 has size 17, but its coefficient N_17 would need the absent a17
    for text in ('X9*X9', 'X2^9', '(1 + X2)^9', 'G(16,2)', 'Gamma(X17)', 'e^3*X9*X9',
                 'a2*a2*a13', 'iota(a2*a2*a13)'):
        code, _ = run(capsys, 'nf', text)
        assert code == 3, text
    for text in ('X2^8', 'G(15,2)', 'e^100000000', 'a2*a2*a12'):
        code, _ = run(capsys, 'nf', text)
        assert code == 0, text


# per command: the largest inputs the degree cap 16 admits (exit 0) and the
# smallest it refuses (exit 3), all through CoefRing.check_size
CAP_EDGES = [
    ('nf', ['X17'], ['X9*X9']),
    ('gamma', ['X16'], ['X17', 'G(15,2)']),
    ('alpha', ['G(14,2)'], ['G(15,2)', 'X17']),
    ('divide-e', ['e*X16'], ['X17', 'G(15,2)']),
    # the torus of P(16) would need N_17: phi and compare never ask for it
    ('phi', ['P(17)', 'triv(a2*a2*a12)', 'gamma(P(16))'], ['triv(a2*a2*a13)']),
    ('compare', ['P(17)', 'triv(a2*a2*a12)', 'gamma(P(16))'], ['triv(a2*a2*a13)']),
    ('delta', ['a16*b1'], ['a16*b2', 'a2^400*b1']),
    # the localization of X17 (degree 17, top exponent -1)
    ('member', ['c16*e^-1 + e^-17'], ['c16*c1', '(c1+c2+c3+c4+c5)^100000000']),
    # identifying in N_*(BO(1)) needs N_n, so --ref admits one dimension less
    ('charnum', ['RP(17)', 'RP(16)*RP(1)', ('--ref', 'u', 'RP(16)')],
     ['RP(18)', 'RP(200)', 'Dold(2,8)', ('--ref', 'u', 'RP(17)')]),
    # each suite asks for coefficients up to d plus its reach: 4 for basis
    # (and so for all), 2 for seq, 0 for the rest; the whole sweep at its
    # largest degree, 12, takes seconds, so only its refusal runs here
    ('verify', [('--suite=trobs', '--degree=16'), ('--suite=seq', '--degree=14')],
     ['--degree=13', ('--suite=seq', '--degree=15'), ('--suite=trobs', '--degree=17')]),
]


@pytest.mark.parametrize('command,admitted,refused', CAP_EDGES,
                         ids=[edge[0] for edge in CAP_EDGES])
def test_one_cap_rule(capsys, command, admitted, refused):
    # an input is one argument, or a tuple of them
    for text in admitted:
        code, out = run(capsys, command, *(text if isinstance(text, tuple) else (text,)))
        assert code == 0, (text, out)
    for text in refused:
        code, out = run(capsys, command, *(text if isinstance(text, tuple) else (text,)))
        assert code == 3, (text, out)
        assert 'exceeds' in out, text


def test_gamma_refuses_before_the_augmentation(capsys):
    # Gamma(G(15,2)) = G(16,2) needs no alpha(G(15,2)), whose N_17 rows the
    # cap would refuse first
    code, out = run(capsys, 'gamma', 'G(15,2)')
    assert code == 3
    assert 'degree plus e power 18 exceeds 17' in out
    code, out = run(capsys, 'gamma', 'X16')
    assert (code, out.strip()) == (0, 'G(1,16)')


def test_reference_rows_refused_by_the_one_rule(capsys):
    # CAP_EDGES admits RP(16) with --ref; RP(17) needs N_17
    code, out = run(capsys, 'charnum', '--ref', 'u', 'RP(17)')
    assert code == 3
    assert 'coefficient degree 17 exceeds the degree cap 16' in out


def test_verify_degree_default_and_negative(capsys):
    # a negative degree used to pass 9 vacuous checks
    code, out = run(capsys, 'verify', '--degree', '-1')
    assert code == 2
    assert 'nonnegative' in out
    # without --degree the report names the largest degree the cap admits
    code, out = run(capsys, 'verify', '--suite', 'trobs', '--json')
    assert code == 0
    assert json.loads(out)['inputs'] == {'degree': 16, 'suite': 'trobs'}


def test_verify_report_without_an_admitted_degree(capsys, tmp_path):
    # the report named degree -4, the default of a cap that admits none
    cfg = tmp_path / 'zero.cfg'
    cfg.write_text('max_degree = 0\n')
    code, out = run(capsys, 'verify', '--json', '--config', str(cfg))
    assert code == 2
    assert json.loads(out)['inputs'] == {'degree': None, 'suite': 'all'}


def test_sw_oracle_refuses_degree_0(capsys, tmp_path):
    # sw-oracle sweeps from degree 1, so degree 0 passed 0 checks with exit 0
    code, out = run(capsys, 'verify', '--suite', 'sw-oracle', '--degree', '0')
    assert code == 2
    assert out == 'error: verify suite sw-oracle sweeps from degree 1, got 0\n'
    # at cap 1 the default degree was 0, the same vacuous pass
    cfg = tmp_path / 'one.cfg'
    cfg.write_text('max_degree = 1\n')
    code, out = run(capsys, 'verify', '--suite', 'sw-oracle', '--config', str(cfg))
    assert code == 2
    assert out == 'error: the degree cap 1 admits no degree of verify suite sw-oracle\n'
    code, out = run(capsys, 'verify', '--suite', 'sw-oracle', '--json', '--config', str(cfg))
    assert code == 2
    assert json.loads(out)['inputs'] == {'degree': None, 'suite': 'sw-oracle'}
    # every other suite starts at 0
    code, out = run(capsys, 'verify', '--degree', '0')
    assert code == 0
    assert out.splitlines()[-1] == '20 checks, 0 failed'


# (argv, exit code, expected output line or None) at caps 0 and 1: no
# family a has a variable there, and at cap 0 no family c or X either
LOW_CAP_ANSWERS = {
    0: [(('nf', 'e'), 0, 'e'), (('delta', 'b1'), 0, 's0'),
        (('member', 'c1*e^-1 + e^-2'), 3, None), (('gamma', 'X2'), 3, None),
        (('verify',), 2, 'error: the degree cap 0 admits no degree of verify suite all')],
    1: [(('nf', 'e'), 0, 'e'), (('delta', 'b1'), 0, 's0'),
        (('member', 'c1*e^-1 + e^-2'), 0, 'X2'), (('gamma', 'X2'), 3, None),
        (('verify',), 2, 'error: the degree cap 1 admits no degree of verify suite all')],
}
LOW_CAP_OTHERS = [('loc', 'e'), ('alpha', 'e'), ('divide-e', 'e^2'), ('geometric', 'e'),
                  ('quotient', 'e'), ('euler', '0', '1'), ('phi', 'P(1)'),
                  ('compare', 'P(1)*S(0)'), ('charnum', 'RP(1)'),
                  ('charnum', '--ref', 'u', 'RP(1)'), ('verify', '--degree', '0'),
                  ('basis-table', '--max', '0', '--e-cap', '0'), ('nf', 'X2*a2')]


@pytest.mark.parametrize('cap', [0, 1])
def test_low_caps_answer_without_traceback(capsys, tmp_path, run_cli, cap):
    cfg = tmp_path / 'low.cfg'
    cfg.write_text('max_degree = %d\n' % cap)
    for argv, want, line in LOW_CAP_ANSWERS[cap]:
        code, out = run(capsys, *argv, '--config', str(cfg))
        assert code == want, (argv, out)
        assert line is None or line in out.splitlines(), (argv, out)
    # every command exits with an answer or a refusal
    for argv in LOW_CAP_OTHERS:
        code, out = run(capsys, *argv, '--config', str(cfg))
        assert code in (0, 1, 3), (argv, out)
        assert 'Traceback' not in out
    # the command that used to crash, in a process of its own
    proc = run_cli('nf', '--config', str(cfg), 'e')
    assert (proc.returncode, proc.stdout) == (0, b'e\n')
    assert b'Traceback' not in proc.stderr


def test_nonsense_inputs_are_usage_errors(capsys):
    # d has degree 2, so its powers met the wrong numbers: w[3,2] = 1 and
    # class a5*s0 came out with exit 0
    code, out = run(capsys, 'charnum', '--ref', 'd', 'Dold(1,2)')
    assert code == 2
    assert 'degree 1' in out
    # a negative e cap listed G(1,2) and dropped every monomial without one
    code, out = run(capsys, 'basis-table', '--max', '3', '--e-cap', '-1')
    assert code == 2
    assert 'e cap' in out


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / 'README.md').read_text()
    block = text.split('## Command line', 1)[1].split('```sh\n', 1)[1].split('```', 1)[0]
    return [line for line in block.splitlines() if line.startswith('bordcalc ')]


def test_readme_examples_run(capsys):
    # each example's trailing comment is a line of its output; one without
    # a comment succeeds
    lines = _readme_commands()
    assert len(lines) >= 11
    shown = set()
    for line in lines:
        command, _, comment = line.partition('#')
        argv = shlex.split(command)[1:]
        shown.add(argv[0])
        code, out = run(capsys, *argv)
        if comment.strip():
            assert comment.strip() in out.splitlines(), (line, out)
        else:
            assert code == 0, (line, out)
    # every command of the CLI has an example
    assert shown == set(cli._COMMANDS)


GOLDEN = Path(__file__).resolve().parent / 'golden'


@pytest.mark.parametrize('argv,golden', [
    (('verify', '--suite', 'all', '--degree', '8'), 'verify_all_d8.json'),
    (('basis-table', '--max', '8'), 'basis_table_max8.json'),
])
def test_json_reports_match_golden(capsys, argv, golden):
    # the reports as they stood before the variable families moved into
    # the table, elapsed_ms dropped
    code, out = run(capsys, *argv, '--json')
    assert code == 0
    report = json.loads(out)
    del report['elapsed_ms']
    assert json.dumps(report, sort_keys=True, indent=1) + '\n' == (GOLDEN / golden).read_text()


def test_closed_stdout_gives_no_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / 'src'))
    proc = subprocess.Popen(
        [sys.executable, '-m', 'bordcalc', 'basis-table', '--max', '8'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # no reader is left, so the first write fails with a broken pipe
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b'Traceback' not in err


def test_divide_e(capsys):
    code, out = run(capsys, 'divide-e', 'e^3')
    assert code == 0
    assert out.strip() == 'e^2'
    code, out = run(capsys, 'divide-e', 'X2')
    assert code == 1
    assert 'a2' in out


def test_euler(capsys):
    code, out = run(capsys, 'euler', '0', '3')
    assert (code, out.strip()) == (0, 'e^3')
    code, out = run(capsys, 'euler', '2', '3')
    assert (code, out.strip()) == (0, '0')


def test_quotient(capsys):
    code, out = run(capsys, 'quotient', 'e^2*G(1,2)')
    assert code == 0
    assert out.strip() == '(a2 + X2)*x1'


def test_phi_delta_compare(capsys):
    code, out = run(capsys, 'phi', 'gamma(P(2))')
    assert code == 0
    assert out.strip() == 'a2*b1 + b1^3 + b1*b2'
    code, out = run(capsys, 'delta', 'b1*b2')
    assert code == 0
    assert out.strip() == 'a2*s0 + s2'
    code, out = run(capsys, 'compare', 'gamma(P(2))*P(2) + triv(a4)')
    assert code == 0
    assert out.startswith('ok')


def test_member(capsys):
    code, out = run(capsys, 'member', 'c1*e^-1 + e^-2')
    assert code == 0
    assert out.strip() == 'X2'


def test_charnum(capsys):
    code, out = run(capsys, 'charnum', 'RP(2)')
    assert code == 0
    assert 'w[1,1] = 1' in out
    assert 'w[2] = 1' in out
    code, out = run(capsys, 'charnum', '--ref', 'u', 'RP(3)')
    assert code == 0
    assert 'class: s3' in out


def test_json_report(capsys):
    code, out = run(capsys, 'nf', '--json', 'e*G(1,2)')
    assert code == 0
    report = json.loads(out)
    assert report['schema'] == 'bordcalc.report/1'
    assert report['command'] == 'nf'
    assert report['inputs'] == {'expr': 'e*G(1,2)'}
    assert report['outputs']['normal_form'] == 'X2 + a2'
    assert report['checks'] == []
    assert isinstance(report['elapsed_ms'], int)


def test_json_report_verify(capsys):
    code, out = run(capsys, 'verify', '--json', '--suite', 'loc', '--degree', '2')
    assert code == 0
    report = json.loads(out)
    assert report['outputs']['failed'] == 0
    assert report['outputs']['total'] == len(report['checks'])
    assert all(c['passed'] for c in report['checks'])


def test_verify_text(capsys):
    code, out = run(capsys, 'verify', '--suite', 'gamma', '--degree', '3')
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith('ok') for line in lines[:-1])
    assert lines[-1].endswith('0 failed')


def test_basis_table(capsys):
    code, out = run(capsys, 'basis-table', '--min', '2', '--max', '2')
    assert code == 0
    assert 'degree 2: 23 monomials' in out
    code, out = run(capsys, 'basis-table', '--min', '3', '--max', '1')
    assert code == 2


def test_basis_table_json_reports_its_e_cap(capsys):
    # the two calls list 3 and 23 monomials: their inputs must tell them apart
    reports = {}
    for extra in ((), ('--e-cap', '1')):
        code, out = run(capsys, 'basis-table', '--min', '2', '--max', '2', '--json', *extra)
        assert code == 0
        reports[extra] = json.loads(out)
    assert reports[()]['inputs'] == {'min': 2, 'max': 2}
    assert reports[('--e-cap', '1')]['inputs'] == {'min': 2, 'max': 2, 'e_cap': 1}
    assert [len(r['outputs']['table']['2']) for r in reports.values()] == [23, 3]


def test_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr('sys.stdin', io.StringIO('e*G(1,2)\n\nX2^2\n'))
    code = main(['nf'])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out == ['X2 + a2', 'X2*X2']
    monkeypatch.setattr('sys.stdin', io.StringIO('X2\ne^-1\n'))
    code = main(['nf'])
    assert code == 2


def test_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / 'small.cfg'
    cfg.write_text('# small ring\nmax_degree = 4\n')
    code, _ = run(capsys, 'nf', '--config', str(cfg), 'X6')
    assert code == 3
    code, _ = run(capsys, 'nf', '--config', str(cfg), 'X4')
    assert code == 0
    monkeypatch.setenv('BORDCALC_CONFIG', str(cfg))
    code, _ = run(capsys, 'nf', 'X6')
    assert code == 3
    wide = tmp_path / 'wide.cfg'
    wide.write_text('max_degree = 12\n')
    code, _ = run(capsys, 'nf', '--config', str(wide), 'X6')
    assert code == 0
    # the cap is one setting
    old = tmp_path / 'old.cfg'
    old.write_text('coef.max_degree = 8\n')
    code = main(['nf', '--config', str(old), 'X6'])
    assert code == 2
    assert 'unknown key coef.max_degree' in capsys.readouterr().err


@pytest.mark.parametrize('argv', [('nf', '--config=', 'X6'), ('nf', '--config', '', 'X6')])
@pytest.mark.parametrize('env', [False, True])
def test_empty_config_value_is_refused(tmp_path, capsys, monkeypatch, argv, env):
    # an explicit --config is the path, so an empty one names no file,
    # whether BORDCALC_CONFIG is set or not
    cfg = tmp_path / 'cap4.cfg'
    cfg.write_text('max_degree = 4\n')
    if env:
        monkeypatch.setenv('BORDCALC_CONFIG', str(cfg))
    else:
        monkeypatch.delenv('BORDCALC_CONFIG', raising=False)
    assert main(list(argv)) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ('', "error: [Errno 2] No such file or directory: ''\n")


def test_empty_config_variable_names_no_file(capsys, monkeypatch):
    monkeypatch.setenv('BORDCALC_CONFIG', '')
    assert run(capsys, 'nf', 'X6') == (0, 'X6\n')


def test_negative_fuel_is_a_usage_error(tmp_path, capsys):
    # rewriting has no step budget, so any fuel, negative or not, is refused
    for value in ('-3', '0', '5'):
        assert main(['nf', '--fuel', value, 'X2']) == 2
        got = capsys.readouterr()
        assert got.out == ''
        assert 'unrecognized arguments: --fuel' in got.err
    cfg = tmp_path / 'fuel.cfg'
    for value in ('-7', '5'):
        cfg.write_text(f'fuel = {value}\n')
        assert main(['nf', '--config', str(cfg), 'X2']) == 2
        got = capsys.readouterr()
        assert got.out == ''
        assert 'unknown key fuel' in got.err


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / 'bad.cfg'
    bad.write_text('mystery = 3\n')
    code = main(['nf', '--config', str(bad), 'X2'])
    err = capsys.readouterr().err
    assert code == 2
    assert 'unknown key' in err
    code = main(['nf', '--config', str(tmp_path / 'absent.cfg'), 'X2'])
    assert code == 2
    # membership has no window slack to configure
    old = tmp_path / 'old.cfg'
    old.write_text('slack = 4\n')
    code = main(['member', '--config', str(old), 'e^-1'])
    assert code == 2
    assert 'unknown key slack' in capsys.readouterr().err
