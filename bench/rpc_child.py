"""The serving child of the ``rpc`` tier: ``RpcServer`` ->
``AsyncOntologyService`` (default knobs) -> ``OntologyService`` over a
store replayed from the delta file the parent wrote with
``save_deltas``.  Runs until the parent sends a word down the pipe (or
the pipe closes because the parent died)."""

from __future__ import annotations

import asyncio

from repro.core.serialize import load_deltas
from repro.core.store import OntologyStore
from repro.serving import AsyncOntologyService, OntologyService
from repro.serving.rpc import RpcServer


def serve(conn, deltas_path: str, ner, tagger_options: dict) -> None:
    backend = OntologyService(
        OntologyStore.bootstrap(None, load_deltas(deltas_path)),
        ner=ner, tagger_options=tagger_options)

    async def main() -> None:
        async with AsyncOntologyService(backend) as service:
            server = RpcServer(service)
            conn.send(await server.start())
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, conn.recv)
            except EOFError:
                pass
            await server.close()

    asyncio.run(main())
