"""The command line: exit codes, reports, config handling, batching."""

import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bordcalc.cli import main
from bordcalc.parsing import parse_presentation


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
    code, out = run(capsys, 'nf', '--fuel', '1', 'G(1,2)*G(1,3)')
    assert code == 3
    assert 'fuel' in out
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
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))"
            % str(Path(__file__).resolve().parents[1] / 'src'))
    proc = subprocess.run([sys.executable, '-S', '-c', code], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'[]\n', b'')


def test_fuel_exhaustion_names_stuck_monomial(capsys, sess):
    code, out = run(capsys, 'nf', '--fuel', '3', 'G(2,5)*G(1,3)*X2')
    assert code == 3
    assert 'fuel exhausted' in out
    stuck = out.strip().rsplit('stuck at ', 1)[1]
    code, out = run(capsys, 'nf', '--fuel', '3', '--json', 'G(2,5)*G(1,3)*X2')
    assert code == 3
    assert json.loads(out)['outputs']['stuck'] == stuck
    # one monomial that is not yet in normal form
    fm, = parse_presentation(stuck, sess.mo).monos
    assert not fm.is_basis()


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
    for line in lines:
        command, _, comment = line.partition('#')
        code, out = run(capsys, *shlex.split(command)[1:])
        if comment.strip():
            assert comment.strip() in out.splitlines(), (line, out)
        else:
            assert code == 0, (line, out)


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


def test_negative_fuel_is_a_usage_error(tmp_path, capsys):
    code = main(['nf', '--fuel', '-3', 'X2'])
    assert code == 2
    assert 'rewrite fuel must be nonnegative' in capsys.readouterr().err
    cfg = tmp_path / 'fuel.cfg'
    cfg.write_text('fuel = -7\n')
    code = main(['nf', '--config', str(cfg), 'X2'])
    assert code == 2
    assert 'rewrite fuel must be nonnegative, got -7' in capsys.readouterr().err
    # no fuel at all still answers what needs no rewriting
    code, out = run(capsys, 'nf', '--fuel', '0', 'X2')
    assert (code, out.strip()) == (0, 'X2')


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
