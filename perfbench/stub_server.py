"""Stand-in for the CLI, used to measure what the client itself costs.

    python3 stub_server.py echo SIZE 0      answer each stdin line with SIZE bytes
                                            (records then a blank line), flushed
    python3 stub_server.py stream SIZE N    write a header line, then N answers of
                                            SIZE bytes each, and exit

The answers have the same sizes as the CLI's, so the client does the same
reads against an answer that costs nothing to compute.
"""
import sys


def payload(size: int) -> bytes:
    """About `size` bytes of 14-byte records, then a blank line."""
    return b"1 1 2 inf inf\n" * max(1, (size - 1) // 14) + b"\n"


def main() -> int:
    mode, size, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    answer = payload(size)
    out = sys.stdout.buffer
    if mode == "echo":
        for line in sys.stdin.buffer:
            if line.strip():
                out.write(answer)
                out.flush()
    else:
        out.write(b"0 0 0\n")
        record_block = answer[:-1]  # a dump has no blank lines
        for _ in range(count):
            out.write(record_block)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
