"""Cache-integrity unit tests: footers, quarantine, verify and gc.

A cache file is one line of JSON plus a ``#sha256=`` footer; these
tests pin the footer round trip, the one verifying reader (every file
it cannot verify is corrupt, footer-less ones included), and the two
maintenance walks behind ``python -m repro cache verify|gc``.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.parallel import CACHE_VERSION
from repro.resilience.integrity import (
    QUARANTINE_DIR,
    CacheAudit,
    CacheFS,
    attach_footer,
    body_digest,
    gc_cache,
    quarantine_file,
    quarantine_path,
    read_verified,
    split_verified,
    verify_cache,
)

BODY = json.dumps({"version": CACHE_VERSION, "result": {"value": 1}}, sort_keys=True)


class TestFooter:
    def test_round_trip(self):
        text = attach_footer(BODY)
        assert text.startswith(BODY)
        assert text.endswith(body_digest(BODY) + "\n")
        assert split_verified(text) == (BODY, "ok")

    def test_footerless_is_corrupt(self):
        assert split_verified(BODY) == (None, "corrupt")

    def test_tampered_body_is_corrupt(self):
        text = attach_footer(BODY).replace('"value": 1', '"value": 2')
        body, status = split_verified(text)
        assert status == "corrupt"
        assert body is None

    def test_truncated_file_is_corrupt_or_legacy_unparseable(self):
        # Truncation cuts the footer off or leaves a mismatching one;
        # either way the body is never served.
        text = attach_footer(BODY)
        for cut in (len(text) // 2, len(text) - 3):
            assert split_verified(text[:cut]) == (None, "corrupt")


class TestReadVerified:
    def test_ok_missing_and_every_corrupt_kind(self, tmp_path):
        ok = _entry(tmp_path, "aa11", attach_footer(BODY))
        assert read_verified(ok) == (json.loads(BODY), "ok")
        assert read_verified(tmp_path / "nope.json") == (None, "missing")
        flipped = bytearray(attach_footer(BODY).encode())
        flipped[5] |= 0x80  # no longer valid UTF-8
        undecodable = _entry(tmp_path, "bb22", "")
        undecodable.write_bytes(bytes(flipped))
        unreadable = tmp_path / "cc" / "cc33.json"
        unreadable.mkdir(parents=True)
        for path in (_entry(tmp_path, "dd44", BODY),  # footer-less
                     _entry(tmp_path, "ee55", attach_footer(BODY)[:-5] + "0000\n"),
                     _entry(tmp_path, "ff66", attach_footer("{not json")),
                     undecodable, unreadable):
            assert read_verified(path) == (None, "corrupt"), path


def _entry(root, name: str, text: str) -> "object":
    path = root / name[:2] / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestVerify:
    def test_empty_root_is_clean(self, tmp_path):
        audit = verify_cache(tmp_path / "nope")
        assert isinstance(audit, CacheAudit)
        assert audit.clean and audit.scanned == 0

    def test_ok_and_corrupt_are_distinguished(self, tmp_path):
        _entry(tmp_path, "aa11", attach_footer(BODY))
        corrupt = _entry(tmp_path, "cc33", attach_footer(BODY)[:-9] + "deadbeef\n")
        audit = verify_cache(tmp_path, quarantine=False)
        assert (audit.scanned, audit.ok) == (2, 1)
        assert audit.corrupt == [str(corrupt)]
        assert not audit.clean
        assert audit.summary() == "2 file(s) scanned, 1 ok, 1 corrupt"

    def test_corrupt_file_moves_to_quarantine(self, tmp_path):
        victim = _entry(tmp_path, "cc33", attach_footer(BODY) + "trailing junk")
        audit = verify_cache(tmp_path)
        target = quarantine_path(tmp_path, victim)
        assert audit.quarantined == [str(target)]
        assert not victim.exists() and target.exists()
        # The quarantined corpse is excluded from subsequent walks.
        assert verify_cache(tmp_path).clean

    def test_quarantine_false_reports_in_place(self, tmp_path):
        victim = _entry(tmp_path, "cc33", attach_footer(BODY)[:-5] + "0000\n")
        audit = verify_cache(tmp_path, quarantine=False)
        assert audit.corrupt == [str(victim)]
        assert audit.quarantined == []
        assert victim.exists()

    def test_legacy_that_fails_to_parse_is_corrupt(self, tmp_path):
        # Footer-less files are corrupt whether or not their body parses.
        garbage = _entry(tmp_path, "dd44", "{not json at all")
        footerless = _entry(tmp_path, "ee55", BODY)
        audit = verify_cache(tmp_path)
        assert audit.ok == 0 and audit.corrupt == [str(garbage), str(footerless)]
        assert len(audit.quarantined) == 2
        assert not garbage.exists() and not footerless.exists()

    def test_high_bit_flip_is_corrupt(self, tmp_path):
        victim = _entry(tmp_path, "aa11", attach_footer(BODY))
        data = bytearray(victim.read_bytes())
        data[len(data) // 3] |= 0x80
        victim.write_bytes(bytes(data))
        audit = verify_cache(tmp_path)
        assert audit.corrupt == [str(victim)]
        assert audit.quarantined == [str(quarantine_path(tmp_path, victim))]

    def test_tmp_orphans_are_reported_not_verified(self, tmp_path):
        _entry(tmp_path, "aa11", attach_footer(BODY))
        tmp = tmp_path / "aa" / "aa11.json.tmp12345"
        tmp.write_text("half a wri")
        audit = verify_cache(tmp_path)
        assert audit.clean and audit.ok == 1
        assert audit.tmp_orphans == [str(tmp)]


class TestQuarantineFile:
    def test_move_failure_falls_back_to_unlink(self, tmp_path):
        class NoMoveFS(CacheFS):
            def move(self, src, dst):
                raise OSError("chaos: rename failed")

        victim = _entry(tmp_path, "aa11", "garbage")
        assert quarantine_file(tmp_path, victim, NoMoveFS()) is None
        # Last resort: the corrupt file must not stay readable in place.
        assert not victim.exists()

    def test_second_quarantine_of_a_name_keeps_both_corpses(self, tmp_path):
        first = _entry(tmp_path, "aa11", "first corpse")
        a = quarantine_file(tmp_path, first)
        second = _entry(tmp_path, "aa11", "second corpse")
        b = quarantine_file(tmp_path, second)
        assert a == tmp_path / QUARANTINE_DIR / "aa11.json"
        assert b == tmp_path / QUARANTINE_DIR / "aa11.1.json"
        assert a.read_text() == "first corpse" and b.read_text() == "second corpse"

    def test_directory_at_entry_path_verifies_dirty_once_then_clean(self, tmp_path):
        # An earlier corpse holds quarantine/aa11.json, and a directory
        # sits where the entry file belongs: os.replace cannot move a
        # directory onto that file and unlink cannot remove a directory.
        (tmp_path / QUARANTINE_DIR).mkdir()
        (tmp_path / QUARANTINE_DIR / "aa11.json").write_text("old corpse")
        (tmp_path / "aa" / "aa11.json").mkdir(parents=True)
        first = verify_cache(tmp_path)
        assert not first.clean
        assert first.quarantined == [str(tmp_path / QUARANTINE_DIR / "aa11.1.json")]
        assert (tmp_path / QUARANTINE_DIR / "aa11.json").read_text() == "old corpse"
        assert not (tmp_path / "aa" / "aa11.json").exists()
        assert verify_cache(tmp_path).clean


class TestGc:
    def test_gc_removes_tmp_stale_and_orphans(self, tmp_path):
        keep = _entry(tmp_path, "aa11", attach_footer(BODY))
        stale = _entry(tmp_path, "bb22", attach_footer(
            json.dumps({"version": 2, "result": {}})))
        # Artifact files of the old three-file entry layout carry no
        # current ``"version"``, so the stale-version pass removes them too.
        stale_obs = tmp_path / "bb" / "bb22.obs.json"
        stale_obs.write_text(attach_footer("{}"))
        orphan = tmp_path / "ee" / "ee55.series.json"
        orphan.parent.mkdir(parents=True)
        orphan.write_text(attach_footer(json.dumps({"version": 1, "windows": []})))
        tmp = tmp_path / "aa" / "aa11.json.tmp99"
        tmp.write_text("torn")

        stats = gc_cache(tmp_path, current_version=CACHE_VERSION)
        assert keep.exists()
        for victim in (stale, stale_obs, orphan, tmp):
            assert not victim.exists()
        assert stats.removed_tmp == 1
        assert stats.removed_stale == 3
        assert stats.bytes_freed > 0
        assert stats.summary().startswith("1 tmp, 3 stale-version, 0 quarantined")

    def test_gc_leaves_quarantine_unless_purged(self, tmp_path):
        qdir = tmp_path / QUARANTINE_DIR
        qdir.mkdir(parents=True)
        corpse = qdir / "aa11.json"
        corpse.write_text("corrupt corpse")
        assert gc_cache(tmp_path, current_version=CACHE_VERSION).removed_quarantined == 0
        assert corpse.exists()
        stats = gc_cache(tmp_path, current_version=CACHE_VERSION, purge_quarantine=True)
        assert stats.removed_quarantined == 1
        assert not corpse.exists() and not qdir.exists()

    def test_gc_skips_corrupt_entries(self, tmp_path):
        bad = _entry(tmp_path, "cc33", attach_footer(BODY)[:-5] + "0000\n")
        stats = gc_cache(tmp_path, current_version=CACHE_VERSION)
        assert stats.removed_stale == 0
        assert bad.exists()  # verify's job, not gc's

    def test_cli_gc_leaves_an_unreadable_entry_path_to_verify(self, tmp_path, capsys):
        keep = _entry(tmp_path, "bb22", attach_footer(BODY))
        unreadable = tmp_path / "aa" / "aa11.json"
        unreadable.mkdir(parents=True)
        assert main(["--cache-dir", str(tmp_path), "cache", "gc"]) == 0
        assert "0 stale-version" in capsys.readouterr().out
        assert unreadable.is_dir() and keep.exists()
        assert main(["--cache-dir", str(tmp_path), "cache", "verify"]) == 1
        assert f"corrupt: {unreadable}" in capsys.readouterr().out
