"""The CLI's CSV output, pinned by sha256 of stdout.

A changed hash means changed output.  Every change must be deliberate, and
the rows it changes are listed in CHANGES.md before the hash is updated.
"""

import hashlib

import pytest

from fraclogistic.cli import main

GOLDEN = [
    (["classical"],
     "d242d8e20054c09712098e95ca9833f0ed018c330fd61479a98fe5386d850309"),
    (["ml-eval"],
     "479f63a76774ed69c4a99a3779adf3d96c1a86fdc62ee8f723a20e43a167d2c3"),
    (["exact-lambda0"],
     "a2078ab748d1019f515c5573ab6b57383364f4cc682270debef42a1b127f8798"),
    (["hsv"],
     "7627baebf34d6e9040728f0ec7328d74c7a15c321f55a76e19c64e697c2b550f"),
    (["closed-form"],
     "3a440e3a692157283ff37ea3864244d0d22343620b0f0e4088f6befd2f0d4e49"),
    (["solve"],
     "4bc0ef449dd6461495e7da878d92c2dbd2e76e2e7f264e5882f2332395428f40"),
    (["compare"],
     "be71d8f3d5a4949b8d0928a5efdd34cc9d66cfcedebc1f5c15165f877372eced"),
    (["surface", "--vary", "mu"],
     "904e6d73dd0b0c9ec47525a2372a17bab0d3782bcd416ad77018d0c7f7f310c1"),
    (["surface", "--vary", "lambda"],
     "ad06fe6728c64826d934e083f66e3256e15ace7a643cd5627ab871dc7447e206"),
    (["surface", "--vary", "both"],
     "d3a92df64286cda9be43d89f9b376938969a65df854d983d0a8df7df3d53b1f9"),
    (["convergence"],
     "e37fb8553bd08ff026c2d49b1f6c453b7a85b04206c556f909953ab863950658"),
    (["stability"],
     "c9035748a704073dee20a0b1edda3f63148967e6c10de4e48130830a5d6edc43"),
    (["exact-lambda0", "--vary", "mu"],
     "f96abf83d853b94d32511c27ce9019fd1d814b04a2703df106df5f281f8ad2de"),
    (["ml-eval", "--mu", "0.5", "--from", "-200", "--to", "50", "--points", "201"],
     "de09b72bc6fa7209ffcf82ab8c814bb6c95b8d05c29704de0ad144fc48be112d"),
    (["solve", "--operator", "cfc", "--lambda", "0"],
     "e26e5876b396cf7391c4c9484ff7eb965abcab1843e521228bc7eccbb9bc0952"),
    (["solve", "--operator", "caputo", "--lambda", "0.5"],
     "b73a2ce6a48706ab62b833f9e97e6471581da041cfd0fd6e11ac2f05000fd116"),
    (["compare", "--lambda", "0.5", "--mu", "0.7"],
     "e6884d6a0f130d5dd1fb1c77ca725df125a13b13feffee2b987be930736f793d"),
    # the delayed value falls inside the node's own leaf: all 5000 nodes of
    # each operator are solved in leaves
    (["compare", "--lambda", "0.95", "--mu", "0.5", "--h", "0.002"],
     "3636cfa6586de425809bd5c423bb74955e2ea2883cb330bc91a5c1055fd7bdb4"),
    # lam = 0 runs are solved a leaf at a time by one product with G
    (["solve", "--lambda", "0"],
     "9ba4eaf4d1c3283466d0c1b5b0a7ff8633edfa307eff53d522bd6c7b99de5767"),
    (["solve", "--operator", "caputo", "--lambda", "0"],
     "01064744d4e40d5b5b7834df73068fd46287c2aecd217e1cc2311b1c732fb7c9"),
    (["compare", "--lambda", "0"],
     "2c80545237a827c1e0ddbb370612f7bde89cc2e9a5184bcd0f72c4076b8902d6"),
    (["stability", "--operator", "cfc", "--lambda", "0"],
     "4f4bc6fcf0ce90c38866b6689765a7b13527a67bb8fa64b35a7f33fce40f71dd"),
    # e^{-r t} overflows past t = 1419, so z underflows to 0
    (["classical", "--r", "-0.5", "--t-end", "2000"],
     "0798039580462caef506920344df6b386789d99ef4eaff9a7ffb956dedf540bb"),
    (["surface", "--vary", "lambda", "--mode", "square"],
     "aeb32ab13d7f5571cdeab691552014a23cef21ca70860b338ea02641b183c48e"),
    # blocks of 4500 and 4200 rows cross the writer's 4096-row chunk
    (["exact-lambda0", "--vary", "mu", "--from", "0.5", "--to", "0.6", "--step", "0.1",
      "--points", "4500"],
     "74f6c16cc45f1fbec62af8fd44afcc9fc24c001292d3db3754cc569586c1a234"),
    (["convergence", "--n-max", "2", "--points", "4200"],
     "e4e7cef72bdb8d9b00ecbd56d89b5e54518c23785110cc03462ba6a897665c79"),
    # b_norm != 1: every route divides by B in its own order
    (["compare", "--b-norm", "2.5", "--mu", "0.7", "--lambda", "0.5"],
     "4cb3147d0046c7025cc869e91164f84525b5a73098bd3e323543195de0a097a0"),
    (["hsv", "--b-norm", "2.5", "--mu", "0.7", "--lambda", "0.5"],
     "ec44bbb57a45eb042fb0e964f105778d4b53bb3a357017629fe7a21c50c73e9e"),
    (["exact-lambda0", "--b-norm", "2.5", "--mu", "0.7"],
     "da6338e6c2b974dfed39ccece4e4b024d908c99f844aff58479dda11cf83bcab"),
    (["closed-form", "--b-norm", "2.5", "--mu", "0.7"],
     "182d7e71a6f1a5d4f2a65140b2e22c44d5873833a0b9a280bb5d6c4e8064ca9e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_matches_golden_hash(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
