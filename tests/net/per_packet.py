"""The per-packet reference for batched-replay parity tests."""


class PerPacketNF:
    """Wrap an NF and hide its ``process_batch``.

    The replay core hands a batch to ``process_batch`` whenever the NF
    has one, so a parity test replays the bare NF against this wrapper:
    the same NF, with ``process`` called once per packet.
    """

    def __init__(self, nf) -> None:
        self.nf = nf
        self.rt = nf.rt
        self.process = nf.process
