import pytest

from dialoscope.atomic import write_atomically, write_text, write_texts


def test_replaces_the_target(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("old\n", "utf-8")
    write_text(out, "new é\n")
    assert out.read_bytes() == "new é\n".encode("utf-8")
    assert list(tmp_path.iterdir()) == [out]


def test_failure_mid_write_leaves_the_target_and_no_temporary(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"old\xc3\xa9\n")
    with pytest.raises(RuntimeError):
        with write_atomically(out) as f:
            f.write("half of the new ")
            f.flush()
            raise RuntimeError("rendering failed")
    assert out.read_bytes() == b"old\xc3\xa9\n"
    assert list(tmp_path.iterdir()) == [out]


def test_failure_without_a_target_creates_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with write_atomically(tmp_path / "records.jsonl") as f:
            f.write("{}\n")
            raise RuntimeError
    assert list(tmp_path.iterdir()) == []


def test_texts_replace_no_target_until_every_one_is_written(tmp_path):
    first = tmp_path / "report.json"
    first.write_text("old\n", "utf-8")
    missing = tmp_path / "missing-dir" / "report.md"
    with pytest.raises(FileNotFoundError, match="report.md'$") as info:
        write_texts([(first, "new\n"), (missing, "new\n")])
    assert info.value.filename == str(missing)
    assert first.read_text("utf-8") == "old\n"
    assert list(tmp_path.iterdir()) == [first]


def test_texts_onto_a_directory_replace_no_target(tmp_path):
    first = tmp_path / "report.json"
    first.write_text("old\n", "utf-8")
    directory = tmp_path / "report.md"
    directory.mkdir()
    with pytest.raises(IsADirectoryError, match="report.md'$") as info:
        write_texts([(first, "new\n"), (directory, "new\n")])
    assert info.value.filename == str(directory)
    assert first.read_text("utf-8") == "old\n"
    assert sorted(tmp_path.iterdir()) == [first, directory]
    assert list(directory.iterdir()) == []


def test_a_link_to_a_directory_is_replaced(tmp_path):
    (tmp_path / "dir").mkdir()
    link = tmp_path / "report.md"
    link.symlink_to("dir")
    write_text(link, "new\n")
    assert not link.is_symlink() and link.read_text("utf-8") == "new\n"


def test_texts_to_one_path_leave_the_last(tmp_path):
    out = tmp_path / "report.md"
    write_texts([(out, "first\n"), (out, "second\n")])
    assert out.read_text("utf-8") == "second\n"
    assert list(tmp_path.iterdir()) == [out]
